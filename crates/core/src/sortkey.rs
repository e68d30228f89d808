//! Memcmp-comparable sort keys: order-preserving byte encoding of values.
//!
//! A key encodes a sequence of values into one byte string whose plain
//! `memcmp` (`&[u8]` ordering) equals the lexicographic [`Value::cmp`]
//! order of the values, so a sort compares bytes and allocates nothing per
//! comparison. Keys live in a [`KeyArena`], many to one vector, each grown
//! value by value: from a row's typed lanes ([`KeyArena::extend_corner_at`],
//! [`KeyArena::push_corner_at`]), or from [`Value`]s
//! ([`KeyArena::extend_value`]) — the two writers are byte-identical.
//! [`SortKey::of_columns`] owns one whole-row key per row of a relation.
//!
//! Most sorts need less: a key's first eight bytes as a word
//! ([`PrefixReader`], [`prefix_of`] — read off the values, nothing encoded)
//! decide almost every comparison. Such sorts order `(prefix, slot)` pairs
//! with [`sort_prefixes`] and encode whole keys, into a small arena, only
//! for the runs whose prefixes tie ([`KeyArena::sorted_slots`]).
//!
//! ## Encoding
//!
//! Each value is encoded self-delimitingly (the scheme is prefix-free, so
//! concatenation preserves lexicographic tuple order):
//!
//! | value | bytes |
//! |---|---|
//! | `Null` | `00` |
//! | `Bool(false)` / `Bool(true)` | `08` / `09` |
//! | numeric (non-NaN `Int`/`Float`) | `10` ∘ mono(f64) ∘ residual |
//! | `Float(NaN)` (any payload) | `18` |
//! | `Str(s)` | `20` ∘ escape(s) ∘ `00 00` |
//!
//! * **mono(f64)** is the standard monotone bijection from (non-NaN,
//!   `-0.0`-normalized) doubles to big-endian `u64`: flip all bits for
//!   negatives, flip the sign bit for positives.
//! * **residual** breaks ties *within* a class of numbers sharing the same
//!   double approximation `d` (an `i64` beyond 2⁵³ and the double it rounds
//!   to, or two such `i64`s): the exact integer value, sign-flipped
//!   big-endian. Values whose tie class is a singleton (fractional or
//!   out-of-`i64`-range doubles) use the neutral residual `0x8000…`,
//!   mirroring the saturating-cast comparison in `Value::cmp` exactly.
//! * **escape(s)** maps interior `00` bytes to `00 FF`, so the `00 00`
//!   terminator sorts below any continuation — shorter strings order
//!   before their extensions, as in `str` ordering.
//!
//! Consistency with `Value::cmp` (including cross-type int–float numeric
//! comparison and the NaN / `-0.0` equivalences) is pinned by property
//! tests in `tests/sortkey_props.rs`.

use crate::physical::PhysSlice;
use crate::range_value::RangeValue;
use audb_rel::Value;

/// Which corner of the hypercube to project.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corner {
    /// The lower-bound corner `t↓`.
    Lb,
    /// The selected-guess point `t_sg`.
    Sg,
    /// The upper-bound corner `t↑`.
    Ub,
}

impl Corner {
    /// This corner's component of a range value.
    #[inline]
    pub fn of(self, r: &RangeValue) -> &Value {
        match self {
            Corner::Lb => &r.lb,
            Corner::Sg => &r.sg,
            Corner::Ub => &r.ub,
        }
    }
}

/// An order-preserving byte encoding of a value sequence; `Ord` on the raw
/// bytes equals lexicographic [`Value::cmp`] on the encoded values.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SortKey(Vec<u8>);

impl SortKey {
    /// The canonical whole-row keys of **every** row of a columnar
    /// relation, encoded straight from the column slices in corner-major
    /// sweeps (each bound vector is walked contiguously; no per-row tuple
    /// is ever materialized). Typed lanes encode monomorphically — `i64`
    /// and `f64` lanes never construct a `Value`, and dictionary lanes
    /// encode each distinct string **once per pool** and then copy bytes
    /// per row. Key `i` is the key [`crate::canonical_order`] sorts row
    /// `i` by, in the same corner order: byte for byte what
    /// [`KeyArena::extend_value`] writes for the values of `cols.tuple(i)`,
    /// corner after corner (Int→F64 lane admission is key-exact: an
    /// integer stored in an `f64` lane has the same mono and residual
    /// bytes as its `Int` form).
    pub fn of_columns(cols: &crate::columns::AuColumns) -> Vec<SortKey> {
        let n = cols.len();
        let mut bufs: Vec<Vec<u8>> = (0..n)
            .map(|_| Vec::with_capacity(cols.arity() * 3 * 17))
            .collect();
        for corner in crate::relation::ROW_KEY {
            for c in 0..cols.arity() {
                encode_slice(cols.col(c).corner(corner), &mut bufs);
            }
        }
        bufs.into_iter().map(SortKey).collect()
    }
}

/// Corner keys of many tuples in one allocation: the memcmp bytes of
/// [`SortKey`] end to end, addressed by *slot* — the order they were
/// pushed in — through an offset table. `Ord` on [`KeyArena::key`] is
/// [`SortKey`]'s order, without a heap allocation per key.
#[derive(Debug)]
pub struct KeyArena {
    bytes: Vec<u8>,
    /// `ends[s]..ends[s + 1]` are the bytes of slot `s`.
    ends: Vec<usize>,
}

impl KeyArena {
    /// An empty arena with room for `keys` keys of `values` numbers each
    /// (strings grow it).
    pub fn with_capacity(keys: usize, values: usize) -> KeyArena {
        let mut ends = Vec::with_capacity(keys + 1);
        ends.push(0);
        KeyArena {
            bytes: Vec::with_capacity(keys * values * 17),
            ends,
        }
    }

    /// Append the key of row `row` of `cols` at `corner` over `idxs`, read
    /// straight from the typed lanes: no tuple is rebuilt and `i64`, `f64`
    /// and dictionary lanes never construct a `Value`. Byte-identical to
    /// [`KeyArena::extend_value`] of the corner's values of
    /// `cols.tuple(row)` (an integer admitted to an `f64` lane included —
    /// see [`SortKey::of_columns`]), then [`KeyArena::end_key`].
    pub fn push_corner_at(
        &mut self,
        cols: &crate::columns::AuColumns,
        row: usize,
        corner: Corner,
        idxs: &[usize],
    ) {
        self.extend_corner_at(cols, row, corner, idxs);
        self.end_key();
    }

    /// [`KeyArena::push_corner_at`] without ending the key: a key made of
    /// several pieces (the whole-row key of [`crate::canonical_order`])
    /// grows by this and [`KeyArena::extend_value`] until
    /// [`KeyArena::end_key`] gives it its slot.
    pub fn extend_corner_at(
        &mut self,
        cols: &crate::columns::AuColumns,
        row: usize,
        corner: Corner,
        idxs: &[usize],
    ) {
        for &i in idxs {
            encode_at(cols.col(i).corner(corner), row, &mut self.bytes);
        }
    }

    /// Append one value to the key under construction: the `Value`-side
    /// encoder, which the lane-side ones above are byte-identical to.
    pub fn extend_value(&mut self, v: &Value) {
        encode_value(v, &mut self.bytes);
    }

    /// End the key under construction (empty if nothing was appended); its
    /// slot is the [`KeyArena::len`] of before.
    pub fn end_key(&mut self) {
        self.ends.push(self.bytes.len());
    }

    /// The key in `slot`.
    #[inline]
    pub fn key(&self, slot: usize) -> &[u8] {
        &self.bytes[self.ends[slot]..self.ends[slot + 1]]
    }

    /// An abbreviation of the key in `slot` that sorts ahead of it: its
    /// first eight bytes, big-endian, zero-padded. `prefix(a) < prefix(b)`
    /// implies `key(a) < key(b)` (a shorter key is a proper prefix of
    /// whatever its padding ties with, and sorts first either way) and
    /// equal keys have equal prefixes — so a sort compares prefixes held
    /// beside the slot numbers and reads the arena on ties only.
    #[inline]
    pub fn prefix(&self, slot: usize) -> u64 {
        self.word_at(slot, 0)
    }

    /// Bytes `at..` of the key in `slot` as [`KeyArena::prefix`] reads the
    /// first eight.
    fn word_at(&self, slot: usize, at: usize) -> u64 {
        let mut head = Head::default();
        head.put(self.key(slot).get(at..).unwrap_or_default());
        head.word
    }

    /// The slots in key order, equal keys in slot order: how a run of
    /// references that tie on their prefixes is put in order. The bytes
    /// every key shares are skipped; [`sort_prefixes`] orders the word
    /// after them, as [`KeyArena::prefix`] orders a key, and a stable
    /// comparator sort — one memcmp per comparison, however long the keys —
    /// only the slots whose words tie.
    pub fn sorted_slots(&self) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        let first = self.key(0);
        let shared = (1..self.len()).fold(first.len(), |shared, slot| {
            let (head, key) = (&first[..shared], self.key(slot));
            match key.starts_with(head) {
                true => shared,
                false => (head.iter().zip(key)).take_while(|(a, b)| a == b).count(),
            }
        });
        let mut refs: Vec<(u64, u32)> = (0..self.len())
            .map(|slot| (self.word_at(slot, shared), slot as u32))
            .collect();
        sort_prefixes(&mut refs);
        for run in refs.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_by(|a, b| self.key(a.1 as usize).cmp(self.key(b.1 as usize)));
        }
        refs.into_iter().map(|(_, slot)| slot as usize).collect()
    }

    /// Forget every key and keep the memory, for the next tied run.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.truncate(1);
    }

    /// Slots pushed so far.
    pub fn len(&self) -> usize {
        self.ends.len() - 1
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`KeyArena::prefix`] of the keys [`KeyArena::push_corner_at`] would
/// encode for the rows of `cols` at `corner` over `idxs`, read off the
/// lanes without an arena or an allocation per key. The corner lanes are
/// looked up once, in `new`; [`PrefixReader::at`] still matches the lead
/// lane's kind on every row (resolving it once per call is ROADMAP item
/// 24). A number leading the key decides it alone (tag and seven bytes of
/// its double): an `i64` or non-NaN `f64` lead is read in closed form.
/// Anything else is encoded until eight bytes are in; `NULL`, `Bool`, NaN
/// and a short string leave room for the next value.
pub struct PrefixReader<'a>(Vec<PhysSlice<'a>>);

impl<'a> PrefixReader<'a> {
    /// The reader of the `corner` keys of `cols` over `idxs`.
    pub fn new(cols: &'a crate::columns::AuColumns, corner: Corner, idxs: &[usize]) -> Self {
        PrefixReader(idxs.iter().map(|&i| cols.col(i).corner(corner)).collect())
    }

    /// The prefix of row `row`'s key.
    #[inline]
    pub fn at(&self, row: usize) -> u64 {
        let number = match self.0.first() {
            Some(PhysSlice::I64(lane)) => lane[row] as f64,
            Some(PhysSlice::F64(lane)) if !lane[row].is_nan() => lane[row],
            _ => return self.encoded(row),
        };
        u64::from(TAG_NUM) << 56 | mono_f64(number) >> 8
    }

    /// [`PrefixReader::at`] off the numeric fast path, out of line, so a
    /// loop over `at` stays small around the closed form.
    #[inline(never)]
    fn encoded(&self, row: usize) -> u64 {
        let mut head = Head::default();
        for &lane in &self.0 {
            if head.len == 8 {
                break;
            }
            encode_at(lane, row, &mut head);
        }
        head.word
    }
}

/// [`KeyArena::prefix`] of the key of the values `vals`, in order.
pub fn prefix_of<'a>(vals: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut head = Head::default();
    for v in vals {
        if head.len == 8 {
            break;
        }
        encode_value(v, &mut head);
    }
    head.word
}

/// Where encoded bytes go: a whole key, or only its first eight bytes.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// How many more bytes the sink keeps: an encoder need read no more
    /// of a value than that.
    fn room(&self) -> usize;
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn room(&self) -> usize {
        usize::MAX
    }
}

/// The first eight bytes of a key as a big-endian word, zero-padded; the
/// rest is dropped.
#[derive(Default)]
struct Head {
    word: u64,
    len: u32,
}

impl Sink for Head {
    /// At most one word per call is kept: bytes past the first eight are
    /// never read.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if self.len == 8 {
            return;
        }
        let mut word = [0u8; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        let word = u64::from_be_bytes(word).checked_shr(8 * self.len);
        self.word |= word.unwrap_or(0);
        self.len = (self.len + n as u32).min(8);
    }

    #[inline]
    fn room(&self) -> usize {
        8 - self.len as usize
    }
}

/// At most this many pairs are ordered by insertion: [`sort_prefixes`]'
/// base case.
const RADIX_BASE: usize = 32;

/// Sort `(prefix, slot)` pairs by prefix, stably — equal prefixes keep
/// their order. LSD radix over the eight bytes of the prefix, a pass
/// skipped where one bucket holds every pair (a byte all prefixes share);
/// up to 32 pairs by insertion.
pub fn sort_prefixes(refs: &mut [(u64, u32)]) {
    let n = refs.len();
    if n <= RADIX_BASE {
        for i in 1..n {
            let mut j = i;
            while j > 0 && refs[j - 1].0 > refs[j].0 {
                refs.swap(j - 1, j);
                j -= 1;
            }
        }
        return;
    }
    let first = refs[0].0;
    if refs.iter().all(|&(p, _)| p == first) {
        return; // a tied run's next word, most often
    }
    let digit = |p: u64, byte: usize| (p >> (8 * byte)) as u8 as usize;
    let mut counts = [[0usize; 256]; 8];
    for &(p, _) in refs.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[digit(p, byte)] += 1;
        }
    }
    let mut buf = Vec::new();
    let mut in_buf = false;
    for (byte, count) in counts.iter().enumerate() {
        if count[digit(first, byte)] == n {
            continue;
        }
        let mut at = [0usize; 256];
        for d in 1..256 {
            at[d] = at[d - 1] + count[d - 1];
        }
        buf.resize(n, (0, 0));
        let (src, dst) = match in_buf {
            false => (&refs[..], &mut buf[..]),
            true => (&buf[..], &mut refs[..]),
        };
        for &pair in src {
            let d = digit(pair.0, byte);
            dst[at[d]] = pair;
            at[d] += 1;
        }
        in_buf = !in_buf;
    }
    if in_buf {
        refs.copy_from_slice(&buf);
    }
}

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x08;
const TAG_TRUE: u8 = 0x09;
const TAG_NUM: u8 = 0x10;
const TAG_NAN: u8 = 0x18;
const TAG_STR: u8 = 0x20;

/// Append the order-preserving encoding of `v` to `out`.
fn encode_value(v: &Value, out: &mut impl Sink) {
    match v {
        Value::Null => out.put(&[TAG_NULL]),
        Value::Bool(false) => out.put(&[TAG_FALSE]),
        Value::Bool(true) => out.put(&[TAG_TRUE]),
        Value::Int(i) => encode_i64(*i, out),
        Value::Float(f) => encode_f64(*f, out),
        Value::Str(s) => encode_str(s.as_bytes(), out),
    }
}

/// Append the encoding of row `row` of one lane: `i64`, `f64` and
/// dictionary lanes never construct a `Value`.
#[inline]
fn encode_at(slice: PhysSlice<'_>, row: usize, out: &mut impl Sink) {
    match slice {
        PhysSlice::I64(lane) => encode_i64(lane[row], out),
        PhysSlice::F64(lane) => encode_f64(lane[row], out),
        PhysSlice::Str { codes, pool } => encode_str(pool.bytes(codes[row]), out),
        PhysSlice::Generic(vals) => encode_value(&vals[row], out),
    }
}

/// The `Int` arm of [`encode_value`], monomorphic.
#[inline]
fn encode_i64(i: i64, out: &mut impl Sink) {
    out.put(&[TAG_NUM]);
    out.put(&mono_f64(i as f64).to_be_bytes());
    out.put(&flip_i64(i).to_be_bytes());
}

/// The `Float` arm of [`encode_value`], monomorphic.
#[inline]
fn encode_f64(f: f64, out: &mut impl Sink) {
    if f.is_nan() {
        out.put(&[TAG_NAN]);
    } else {
        out.put(&[TAG_NUM]);
        out.put(&mono_f64(f).to_be_bytes());
        out.put(&float_residual(f).to_be_bytes());
    }
}

/// The `Str` arm of [`encode_value`], monomorphic: the runs between NUL
/// bytes go in as slices, each NUL as `0 FF`. A byte never encodes to
/// fewer than one, so a sink with `room` bytes left needs no more than the
/// first `room` bytes of the string — a key's head reads eight, not the
/// whole string.
#[inline]
fn encode_str(bytes: &[u8], out: &mut impl Sink) {
    out.put(&[TAG_STR]);
    let read = &bytes[..bytes.len().min(out.room())];
    for (k, run) in read.split(|&b| b == 0).enumerate() {
        if k > 0 {
            out.put(&[0, 0xFF]);
        }
        out.put(run);
    }
    out.put(&[0, 0]);
}

/// Append one column corner's encoding to every row buffer: a monomorphic
/// sweep per physical layout. Dictionary lanes pre-encode each distinct
/// string once and append bytes by code.
fn encode_slice(slice: PhysSlice<'_>, bufs: &mut [Vec<u8>]) {
    match slice {
        PhysSlice::I64(lane) => {
            for (buf, &i) in bufs.iter_mut().zip(lane) {
                encode_i64(i, buf);
            }
        }
        PhysSlice::F64(lane) => {
            for (buf, &f) in bufs.iter_mut().zip(lane) {
                encode_f64(f, buf);
            }
        }
        PhysSlice::Str { codes, pool } => {
            let encoded: Vec<Vec<u8>> = (0..pool.len())
                .map(|c| {
                    let mut b = Vec::new();
                    encode_str(pool.bytes(c as u32), &mut b);
                    b
                })
                .collect();
            for (buf, &code) in bufs.iter_mut().zip(codes) {
                buf.extend_from_slice(&encoded[code as usize]);
            }
        }
        PhysSlice::Generic(vals) => {
            for (buf, v) in bufs.iter_mut().zip(vals) {
                encode_value(v, buf);
            }
        }
    }
}

/// Monotone map from non-NaN doubles to `u64`: `a < b ⇔ mono(a) < mono(b)`
/// under numeric comparison, with `-0.0` normalized to `0.0`.
fn mono_f64(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f }; // collapse -0.0
    let bits = f.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Sign-flip an `i64` so unsigned byte order equals signed order.
fn flip_i64(i: i64) -> u64 {
    (i as u64) ^ (1 << 63)
}

/// Tie-break residual for a non-NaN float: numbers sharing its double
/// approximation are compared by exact integer value, with the same
/// integrality/range test (and saturating cast) `Value::cmp` uses.
fn float_residual(f: f64) -> u64 {
    if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
        flip_i64(f as i64)
    } else {
        // Fractional or out-of-range doubles share their tie class with no
        // integer; any constant works, the sign-flipped zero is neutral.
        1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::AuColumns;
    use crate::mult::Mult3;
    use crate::relation::AuRelation;
    use crate::tuple::AuTuple;
    use audb_rel::{Schema, Tuple};

    /// The key of `vals`, in order, through the `Value`-side encoder.
    fn key_of<'a>(vals: impl IntoIterator<Item = &'a Value>) -> Vec<u8> {
        let mut arena = KeyArena::with_capacity(1, 0);
        vals.into_iter().for_each(|v| arena.extend_value(v));
        arena.end_key();
        arena.key(0).to_vec()
    }

    fn key(v: Value) -> Vec<u8> {
        key_of([&v])
    }

    #[test]
    fn key_order_matches_value_order_on_fixtures() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            Value::Float(-2.5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Float(1e300),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("a"),
            Value::str("ab"),
            Value::str("b"),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    key(a.clone()).cmp(&key(b.clone())),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn numeric_equivalences_collapse() {
        assert_eq!(key(Value::Int(7)), key(Value::Float(7.0)));
        assert_eq!(key(Value::Float(-0.0)), key(Value::Float(0.0)));
        assert_eq!(key(Value::Float(-0.0)), key(Value::Int(0)));
        assert_eq!(key(Value::Float(f64::NAN)), key(Value::Float(-f64::NAN)));
    }

    #[test]
    fn big_integers_keep_exact_order() {
        // 2^53 + 1 is not representable as f64; the residual must resolve.
        let a = Value::Int((1 << 53) + 1);
        let b = Value::Float((1u64 << 53) as f64);
        assert_eq!(key(a.clone()).cmp(&key(b.clone())), a.cmp(&b));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Greater);
        let c = Value::Int(i64::MAX);
        let d = Value::Int(i64::MAX - 1);
        assert_eq!(key(c.clone()).cmp(&key(d.clone())), c.cmp(&d));
    }

    #[test]
    fn string_embedded_nuls_and_prefixes() {
        let cases = [
            Value::str("a"),
            Value::str("a\0"),
            Value::str("a\0b"),
            Value::str("a\u{1}"),
            Value::str("aa"),
        ];
        for a in &cases {
            for b in &cases {
                assert_eq!(
                    key(a.clone()).cmp(&key(b.clone())),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn concatenation_preserves_tuple_order() {
        let tuples = [
            Tuple::new([Value::Int(1), Value::str("z")]),
            Tuple::new([Value::Int(1), Value::str("za")]),
            Tuple::new([Value::Int(2), Value::Null]),
            Tuple::new([Value::Float(1.5), Value::Bool(true)]),
        ];
        let idxs = [0usize, 1];
        for a in &tuples {
            for b in &tuples {
                let of = |t: &Tuple| key_of(idxs.iter().map(|&i| t.get(i)));
                assert_eq!(of(a).cmp(&of(b)), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    /// `n` pairs in slot order whose prefixes come from `pool`, picked by
    /// a xorshift stream.
    fn pairs(n: usize, pool: &[u64]) -> Vec<(u64, u32)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n as u32)
            .map(|slot| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (pool[(x % pool.len() as u64) as usize], slot)
            })
            .collect()
    }

    /// [`sort_prefixes`] against the standard library's stable sort.
    fn assert_sorts(mut refs: Vec<(u64, u32)>) {
        let mut want = refs.clone();
        want.sort_by_key(|&(prefix, _)| prefix);
        sort_prefixes(&mut refs);
        assert_eq!(refs, want);
    }

    /// Prefixes that differ in one byte each, in every byte, and in all.
    const SPREAD: [u64; 8] = [
        0,
        1,
        0xFF00,
        0x0001_0000_0000,
        0x0100_0000_0000_0000,
        0x10C0_0000_0000_0000,
        0x10C0_0000_0000_0001,
        u64::MAX,
    ];

    #[test]
    fn radix_sort_below_at_and_above_its_base_case() {
        for n in [
            0,
            1,
            2,
            RADIX_BASE - 1,
            RADIX_BASE,
            RADIX_BASE + 1,
            3 * RADIX_BASE,
        ] {
            assert_sorts(pairs(n, &SPREAD));
            assert_sorts(pairs(n, &SPREAD[5..7]));
        }
    }

    /// One bucket holds every pair at every byte: no pass runs, and the
    /// order is the stored one.
    #[test]
    fn radix_sort_of_equal_prefixes_keeps_slot_order() {
        for n in [RADIX_BASE, RADIX_BASE + 1, 2 * RADIX_BASE + 7] {
            let mut refs = pairs(n, &[0x10C0_1234_5678_9ABC]);
            sort_prefixes(&mut refs);
            assert!(refs
                .iter()
                .enumerate()
                .all(|(i, &(_, slot))| slot == i as u32));
        }
    }

    #[test]
    fn radix_sort_of_reversed_input() {
        for n in [RADIX_BASE, RADIX_BASE + 1, 2 * RADIX_BASE + 7] {
            let refs: Vec<(u64, u32)> = (0..n as u32)
                .map(|slot| {
                    (
                        u64::MAX - u64::from(slot).wrapping_mul(0x0101_0101_0101),
                        slot,
                    )
                })
                .collect();
            assert_sorts(refs);
        }
    }

    /// Equal prefixes come out in slot order, across passes that move them.
    #[test]
    fn radix_sort_is_stable() {
        for n in [RADIX_BASE - 1, RADIX_BASE + 1, 3 * RADIX_BASE] {
            let mut refs = pairs(n, &SPREAD[..4]);
            sort_prefixes(&mut refs);
            for run in refs.chunk_by(|a, b| a.0 == b.0) {
                assert!(run.windows(2).all(|w| w[0].1 < w[1].1), "{run:?}");
            }
        }
    }

    /// `sorted_slots` is the stable byte sort: over keys that share their
    /// leading bytes (every key but the empty one, or none), tie past the
    /// word after them (numbers past 2⁵³ differ in the residual only),
    /// repeat, and run out at different lengths — `[s, 1]` is a proper
    /// prefix of `[s, 1, NULL]`, which differs from it by a zero byte.
    #[test]
    fn sorted_slots_is_the_stable_byte_sort() {
        let vals = [
            Value::Int((1 << 60) + 1),
            Value::Null,
            Value::Int(1 << 60),
            Value::str("ab\0"),
            Value::Int(1),
            Value::str("ab"),
        ];
        for lead in [None, Some(Value::str("a shared lead"))] {
            for first in 0..2 {
                let mut arena = KeyArena::with_capacity(0, 0);
                for i in first..60 {
                    if i > 0 {
                        lead.iter().for_each(|v| arena.extend_value(v));
                    }
                    for v in [&vals[i % 6], &vals[i * 7 % 6], &vals[i / 6 % 6]]
                        .into_iter()
                        .take(i % 4)
                    {
                        arena.extend_value(v);
                    }
                    arena.end_key();
                }
                let mut want: Vec<usize> = (0..arena.len()).collect();
                want.sort_by(|&a, &b| arena.key(a).cmp(arena.key(b)));
                assert_eq!(arena.sorted_slots(), want);
            }
        }
        assert!(KeyArena::with_capacity(0, 0).sorted_slots().is_empty());
    }

    /// A corner's key read off the lanes is the key of the materialized
    /// corner tuple's values.
    #[test]
    fn corner_keys_equal_materialized_corner_keys() {
        let t = AuTuple::new([
            RangeValue::new(1, 2, 3),
            RangeValue::certain(Value::str("x")),
        ]);
        let cols = AuColumns::from_relation(&AuRelation::from_rows(
            Schema::new(["a", "s"]),
            [(t.clone(), Mult3::ONE)],
        ));
        let idxs = [1usize, 0];
        for (corner, point) in [
            (Corner::Lb, t.lb_tuple()),
            (Corner::Sg, t.sg_tuple()),
            (Corner::Ub, t.ub_tuple()),
        ] {
            let mut lanes = KeyArena::with_capacity(1, 2);
            lanes.push_corner_at(&cols, 0, corner, &idxs);
            let want = key_of(idxs.iter().map(|&i| point.get(i)));
            assert_eq!(lanes.key(0), want, "{corner:?}");
        }
    }
}
