//! Property tests pinning the zero-allocation hot paths to their
//! semantic references:
//!
//! * key byte order ≡ [`Value::cmp`] (and its lexicographic extension to
//!   mixed-type tuples), through [`KeyArena::extend_value`], the
//!   `Value`-side encoder — the contract every sweep and normalize sort in
//!   `audb-native`/`audb-core` relies on;
//! * [`KeyArena`] slots filled off the lanes hold those same bytes, and a
//!   slot's prefix orders ahead of its key — what the native sort's one
//!   ranking sort relies on;
//! * the rewritten `normalize()` (precomputed keys, sort + adjacent-merge,
//!   borrow-or-owned fast path) ≡ the original semantics: merge identical
//!   hypercubes additively, drop `(0,0,0)` rows, deterministic total order.

use audb::core::sortkey::{prefix_of, Corner, KeyArena, PrefixReader};
use audb::core::{AuColumns, AuRelation, AuTuple, Mult3, RangeValue};
use audb::rel::{Schema, Tuple, Value};
use proptest::prelude::*;

/// Values across every variant, weighted toward collision-prone numerics
/// (equal ints/floats, signed zeros, NaN) so the cross-type edge cases of
/// `Value::cmp` are exercised, not dodged.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        proptest::bool::ANY.prop_map(Value::Bool),
        (-6i64..6).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int((1 << 53) + 1)),
        (-6i64..6).prop_map(|i| Value::Float(i as f64)),
        (-24i64..24).prop_map(|i| Value::Float(i as f64 / 4.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float((1u64 << 53) as f64)),
        (0u8..4, 0u8..3).prop_map(|(c, n)| {
            let ch = [b'a', b'b', b'\0', b'z'][c as usize] as char;
            Value::str(ch.to_string().repeat(n as usize))
        }),
    ]
}

fn rv_strategy() -> impl Strategy<Value = RangeValue> {
    (value_strategy(), value_strategy(), value_strategy()).prop_map(|(a, b, c)| {
        // Order the three draws so the range is well-formed.
        let mut v = [a, b, c];
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue { lb, sg, ub }
    })
}

fn au_relation_strategy() -> impl Strategy<Value = AuRelation> {
    let mult = prop_oneof![
        Just(Mult3::ZERO),
        Just(Mult3::ONE),
        Just(Mult3::new(0, 1, 1)),
        Just(Mult3::new(0, 0, 1)),
        Just(Mult3::new(1, 2, 3)),
    ];
    proptest::collection::vec(((rv_strategy(), rv_strategy()), mult), 0..14).prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            rows.into_iter()
                .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
        )
    })
}

/// The key of `vals`, in order, through the `Value`-side encoder.
fn key_of<'a>(vals: impl IntoIterator<Item = &'a Value>) -> Vec<u8> {
    let mut arena = KeyArena::with_capacity(1, 0);
    vals.into_iter().for_each(|v| arena.extend_value(v));
    arena.end_key();
    arena.key(0).to_vec()
}

/// The historic normalize(): hash-merge on tuple equality, drop zeros,
/// sort by corner tuples compared element-wise. Kept here as the semantic
/// reference for the optimized implementation.
fn normalize_reference(rel: &AuRelation) -> Vec<(AuTuple, Mult3)> {
    let mut map: Vec<(AuTuple, Mult3)> = Vec::new();
    for row in rel.rows() {
        if row.mult.is_zero() {
            continue;
        }
        match map.iter_mut().find(|(t, _)| *t == row.tuple) {
            Some((_, m)) => *m = m.checked_add(row.mult).expect("small multiplicities"),
            None => map.push((row.tuple.clone(), row.mult)),
        }
    }
    map.sort_by(|a, b| {
        a.0.lb_tuple()
            .cmp(&b.0.lb_tuple())
            .then_with(|| a.0.ub_tuple().cmp(&b.0.ub_tuple()))
            .then_with(|| a.0.sg_tuple().cmp(&b.0.sg_tuple()))
    });
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-value key order ≡ `Value::cmp`, for every pair of generated
    /// values (including NaN payload/sign classes and -0.0 vs Int(0)).
    #[test]
    fn sortkey_matches_value_cmp(a in value_strategy(), b in value_strategy()) {
        let (ka, kb) = (key_of([&a]), key_of([&b]));
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
    }

    /// Concatenated keys ≡ lexicographic tuple comparison, mixed types and
    /// unequal prefixes included.
    #[test]
    fn sortkey_tuples_match_lexicographic_cmp(
        xs in proptest::collection::vec(value_strategy(), 1..4),
        ys in proptest::collection::vec(value_strategy(), 1..4),
    ) {
        // Compare on the shared arity (keys of different arity encode
        // different projections; the operators never mix those).
        let n = xs.len().min(ys.len());
        let idxs: Vec<usize> = (0..n).collect();
        let (a, b) = (Tuple::new(xs), Tuple::new(ys));
        let ka = key_of(idxs.iter().map(|&i| a.get(i)));
        let kb = key_of(idxs.iter().map(|&i| b.get(i)));
        let expect = idxs
            .iter()
            .map(|&i| a.get(i).cmp(b.get(i)))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal);
        prop_assert_eq!(ka.cmp(&kb), expect, "{} vs {}", a, b);
    }

    /// Corner keys read off the lanes equal the key of the materialized
    /// corner tuple — the allocation they avoid is pure overhead, not a
    /// semantic change.
    #[test]
    fn corner_keys_equal_materialized(
        rvs in proptest::collection::vec(rv_strategy(), 1..4),
    ) {
        let t = AuTuple::new(rvs);
        let idxs: Vec<usize> = (0..t.arity()).collect();
        let names: Vec<String> = idxs.iter().map(|i| format!("c{i}")).collect();
        let rel = AuRelation::from_rows(Schema::new(names), [(t.clone(), Mult3::ONE)]);
        let cols = rel.to_columns();
        for (corner, point) in [
            (Corner::Lb, t.lb_tuple()),
            (Corner::Sg, t.sg_tuple()),
            (Corner::Ub, t.ub_tuple()),
        ] {
            let mut lanes = KeyArena::with_capacity(1, idxs.len());
            lanes.push_corner_at(&cols, 0, corner, &idxs);
            prop_assert_eq!(lanes.key(0), key_of(&point.0), "{:?}", corner);
        }
    }
}

/// Integers where the encodings are most likely to slip: the `i64` edges,
/// neighbours beyond 2⁵³ that share one `f64`, and small ones that tie.
fn int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        -4i64..4,
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX),
        Just(i64::MAX - 1),
        (0i64..4).prop_map(|d| (1 << 53) + d),
        (0i64..4).prop_map(|d| -(1 << 53) - d),
        (0i64..4).prop_map(|d| (1 << 62) + d),
    ]
}

/// A column of integers, a share of them stored as the `Float` of the same
/// number (equal under `Value::cmp` whenever the float is exact).
fn int_or_float_strategy() -> impl Strategy<Value = Value> {
    (int_strategy(), 0u8..3).prop_map(|(i, as_float)| {
        if as_float == 0 {
            Value::Float(i as f64)
        } else {
            Value::Int(i)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arena slots filled off the lanes ≡ stand-alone keys of the
    /// materialized corner tuples, byte for byte and hence in order, with
    /// every corner of every row pushed — and the order of the slots of
    /// all-`Int` tuples is the lexicographic `Value::cmp` order of the
    /// corner tuples, at the `i64` edges and beyond 2⁵³ too, whether or
    /// not a column also holds the same numbers as `Float`s.
    #[test]
    fn arena_slots_match_corner_keys_and_value_order(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec(int_strategy(), 3),
                proptest::collection::vec(int_or_float_strategy(), 3),
            ),
            2..10,
        ),
        mixed in proptest::bool::ANY,
    ) {
        let idxs = [1usize, 0, 2];
        let tuples: Vec<AuTuple> = rows
            .into_iter()
            .map(|(ints, nums)| {
                let mut vals: Vec<Value> = if mixed {
                    nums
                } else {
                    ints.into_iter().map(Value::Int).collect()
                };
                vals.sort();
                let [lb, sg, ub] = [vals[0].clone(), vals[1].clone(), vals[2].clone()];
                AuTuple::new([
                    RangeValue { lb: lb.clone(), sg, ub },
                    RangeValue::certain(lb),
                    RangeValue::certain(vals[2].clone()),
                ])
            })
            .collect();
        let rel = AuRelation::from_rows(
            Schema::new(["x", "y", "z"]),
            tuples.iter().map(|t| (t.clone(), Mult3::ONE)),
        );
        let cols = rel.to_columns();
        let mut arena = KeyArena::with_capacity(0, 0);
        let mut slots: Vec<(Tuple, Vec<u8>)> = Vec::new();
        for (row, t) in tuples.iter().enumerate() {
            for (corner, point) in [
                (Corner::Lb, t.lb_tuple()),
                (Corner::Sg, t.sg_tuple()),
                (Corner::Ub, t.ub_tuple()),
            ] {
                prop_assert_eq!(arena.len(), slots.len());
                arena.push_corner_at(&cols, row, corner, &idxs);
                let point = point.project(&idxs);
                let key = key_of(&point.0);
                slots.push((point, key));
            }
        }
        for (a, (ta, ka)) in slots.iter().enumerate() {
            prop_assert_eq!(arena.key(a), ka.as_slice());
            for (b, (tb, kb)) in slots.iter().enumerate() {
                let by_key = arena.key(a).cmp(arena.key(b));
                prop_assert_eq!(by_key, ka.cmp(kb));
                prop_assert_eq!(by_key, ta.cmp(tb), "{} vs {}", ta, tb);
            }
        }
    }

    /// A slot's prefix sorts ahead of its key, over every kind of value
    /// and keys shorter than the prefix: a smaller prefix means a smaller
    /// key, equal keys have equal prefixes.
    #[test]
    fn arena_prefix_orders_ahead_of_the_key(
        rows in proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 2),
            2..12,
        ),
        width in 0usize..3,
    ) {
        let idxs: Vec<usize> = (0..width).collect();
        let mut arena = KeyArena::with_capacity(rows.len(), width);
        for vals in rows {
            idxs.iter().for_each(|&i| arena.extend_value(&vals[i]));
            arena.end_key();
        }
        for a in 0..arena.len() {
            for b in 0..arena.len() {
                let by_key = arena.key(a).cmp(arena.key(b));
                match arena.prefix(a).cmp(&arena.prefix(b)) {
                    std::cmp::Ordering::Equal => {}
                    by_prefix => prop_assert_eq!(by_prefix, by_key),
                }
                if by_key.is_eq() {
                    prop_assert_eq!(arena.prefix(a), arena.prefix(b));
                }
            }
        }
    }
}

/// Values whose prefixes tie where they differ as well as where they do
/// not: every kind of [`value_strategy`], integers a step apart near 2⁶⁰
/// (one double, so the prefix drops their difference) and strings that
/// share their first eight bytes.
fn tying_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        value_strategy(),
        (0i64..4).prop_map(|d| Value::Int((1 << 60) + d)),
        Just(Value::Float((1u64 << 60) as f64)),
        (0u8..3).prop_map(|c| Value::str(format!("sensor-0{}", (b'a' + c) as char))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// What the window pool's heaps compare before any value: a value's
    /// prefix orders it wherever two prefixes differ, and equal values —
    /// `0` and `-0.0`, `3` and `3.0`, NaNs of any payload — have equal
    /// prefixes.
    #[test]
    fn prefix_of_orders_values_where_prefixes_differ(
        a in tying_value_strategy(),
        b in tying_value_strategy(),
    ) {
        let (pa, pb) = (prefix_of([&a]), prefix_of([&b]));
        if pa != pb {
            prop_assert_eq!(pa.cmp(&pb), a.cmp(&b), "{:?} vs {:?}", a, b);
        }
        if a.cmp(&b).is_eq() {
            prop_assert_eq!(pa, pb, "{:?} vs {:?}", a, b);
        }
    }
}

/// The pairs the property is about, spelled out: equal values spelled
/// apart share a prefix, and values whose prefixes tie are told apart by
/// their values alone.
#[test]
fn prefixes_of_equal_and_of_tied_values() {
    let p = |v: Value| prefix_of([&v]);
    assert_eq!(p(Value::Float(-0.0)), p(Value::Int(0)));
    assert_eq!(p(Value::Int(3)), p(Value::Float(3.0)));
    assert_eq!(p(Value::Float(f64::NAN)), p(Value::Float(-f64::NAN)));
    assert!(p(Value::Null) < p(Value::Bool(false)));
    assert!(p(Value::Bool(true)) < p(Value::Int(i64::MIN)));
    assert!(p(Value::Float(f64::INFINITY)) < p(Value::Float(f64::NAN)));
    assert!(p(Value::Float(f64::NAN)) < p(Value::str("")));
    for (a, b) in [
        (Value::Int(1 << 60), Value::Int((1 << 60) + 1)),
        (Value::str("sensor-0a"), Value::str("sensor-0b")),
    ] {
        assert_eq!(p(a.clone()), p(b.clone()));
        assert!(a < b);
    }
}

/// Three sorted draws as one range.
fn range_of(draws: impl Strategy<Value = Value>) -> impl Strategy<Value = RangeValue> {
    proptest::collection::vec(draws, 3).prop_map(|mut v| {
        v.sort();
        let ub = v.pop().unwrap();
        let sg = v.pop().unwrap();
        RangeValue {
            lb: v.pop().unwrap(),
            sg,
            ub,
        }
    })
}

/// Columns `(i, f, s, g)` that infer an `i64` lane (edges and beyond 2⁵³),
/// an `f64` lane (NaNs, signed zeros, infinities, and whole numbers — what
/// the loader admits integers as), a dictionary lane (empty, short and long
/// strings, embedded NULs, prefixes) and a `Generic` one (every kind of
/// value, `NULL` and `Bool` among them) — one row certain on every
/// attribute, so the bitmaps are probed both ways.
fn lane_columns() -> impl Strategy<Value = (AuColumns, usize)> {
    let rows = proptest::collection::vec(
        (
            range_of(int_strategy().prop_map(Value::Int)),
            range_of(prop_oneof![
                int_strategy().prop_map(|i| Value::Float(i as f64)),
                (-24i64..24).prop_map(|i| Value::Float(i as f64 / 4.0)),
                Just(Value::Float(-0.0)),
                Just(Value::Float(f64::NAN)),
                Just(Value::Float(f64::NEG_INFINITY)),
                Just(Value::Float(f64::INFINITY)),
            ]),
            range_of((0u8..4, prop_oneof![0u8..3, Just(9u8)]).prop_map(|(c, n)| {
                let ch = [b'a', b'b', b'\0', b'z'][c as usize] as char;
                Value::str(ch.to_string().repeat(n as usize))
            })),
            rv_strategy(),
        ),
        1..12,
    );
    (rows, 0usize..12).prop_map(|(rows, certain_row)| {
        let mut rows: Vec<AuTuple> = rows
            .into_iter()
            .map(|(i, f, s, g)| AuTuple::new([i, f, s, g]))
            .collect();
        let at = certain_row % rows.len();
        rows[at] = AuTuple::new(rows[at].0.iter().map(|r| RangeValue::certain(r.sg.clone())));
        let rel = AuRelation::from_rows(
            Schema::new(["i", "f", "s", "g"]),
            rows.into_iter().map(|t| (t, Mult3::ONE)),
        );
        (rel.to_columns(), at)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lane-wise arena fill ≡ the value-wise one, byte for byte:
    /// `push_corner_at` on row `i` of [`lane_columns`] writes the bytes
    /// `extend_value` writes for the corner's values of `cols.tuple(i)`,
    /// at every corner.
    #[test]
    fn lane_wise_arena_fill_matches_push_corner(lanes in lane_columns()) {
        use audb::core::PhysType;
        let (cols, at) = lanes;
        let lanes: Vec<PhysType> = (0..3).map(|c| cols.col(c).phys_type()).collect();
        prop_assert_eq!(lanes, vec![PhysType::I64, PhysType::F64, PhysType::Str]);

        prop_assert!(cols.row_is_certain(at));

        let idxs = [2usize, 0, 3, 1];
        let mut by_lane = KeyArena::with_capacity(3 * cols.len(), idxs.len());
        let mut by_tuple = KeyArena::with_capacity(3 * cols.len(), idxs.len());
        for i in 0..cols.len() {
            prop_assert_eq!(cols.row_is_certain(i), cols.tuple(i).is_certain());
            for corner in [Corner::Lb, Corner::Sg, Corner::Ub] {
                by_lane.push_corner_at(&cols, i, corner, &idxs);
                let t = cols.tuple(i);
                idxs.iter().for_each(|&c| by_tuple.extend_value(corner.of(&t.0[c])));
                by_tuple.end_key();
                let slot = by_lane.len() - 1;
                prop_assert_eq!(by_lane.key(slot), by_tuple.key(slot), "row {}, {:?}", i, corner);
                prop_assert_eq!(by_lane.prefix(slot), by_tuple.prefix(slot));
            }
        }
    }

    /// What a ranking sorts by is the prefix of the key it stands for:
    /// [`PrefixReader`] over the lanes — and `prefix_of` over the corner's
    /// values — equals [`KeyArena::prefix`] of the key `push_corner_at`
    /// encodes, at every corner, whichever lane leads the key: `i64` and
    /// `f64` (NaN and `-0.0` among its values), read in closed form but for
    /// NaN, a dictionary string, or a `Generic` value — a `NULL` or `Bool`
    /// among them — and what follows a short one.
    #[test]
    fn prefix_at_is_the_prefix_of_the_encoded_key(lanes in lane_columns()) {
        let cols = lanes.0;
        for idxs in [[0usize, 1, 2, 3], [1, 2, 0, 3], [2, 3, 1, 0], [3, 2, 1, 0], [2, 2, 3, 0]] {
            let mut keys = KeyArena::with_capacity(0, 0);
            for corner in [Corner::Lb, Corner::Sg, Corner::Ub] {
                let prefix = PrefixReader::new(&cols, corner, &idxs);
                for i in 0..cols.len() {
                    keys.push_corner_at(&cols, i, corner, &idxs);
                    let want = keys.prefix(keys.len() - 1);
                    prop_assert_eq!(prefix.at(i), want, "row {}, {:?}, {:?}", i, corner, idxs);
                    let t = cols.tuple(i);
                    let vals = idxs.iter().map(|&c| corner.of(&t.0[c]));
                    prop_assert_eq!(prefix_of(vals), want);
                }
            }
        }
    }
}

/// The unit case of `prefix_at_is_the_prefix_of_the_encoded_key` at a
/// megabyte: strings whose NUL falls before, at and after the eighth key
/// byte (or nowhere), leading the key or behind a number. The head is the
/// encoded key's head, and the key still holds every byte of the string —
/// one escape per NUL, then the terminator.
#[test]
fn prefix_at_is_the_prefix_of_a_megabyte_key() {
    let mb = 1 << 20;
    let nuls = [
        None,
        Some(0),
        Some(3),
        Some(6),
        Some(7),
        Some(8),
        Some(mb / 2),
        Some(mb - 1),
    ];
    let strings: Vec<Value> = (nuls.iter())
        .map(|nul| {
            let mut bytes = vec![b'k'; mb];
            if let Some(at) = *nul {
                bytes[at] = 0;
            }
            Value::str(String::from_utf8(bytes).unwrap())
        })
        .collect();
    let rel = AuRelation::from_rows(
        Schema::new(["s", "i"]),
        (strings.iter().enumerate()).map(|(i, s)| {
            let i = i as i64;
            (
                AuTuple::new([RangeValue::certain(s.clone()), RangeValue::new(i, i, 9)]),
                Mult3::ONE,
            )
        }),
    );
    let cols = rel.to_columns();
    let number_key = 1 + 8 + 8;
    for idxs in [[0usize, 1], [1, 0]] {
        for (row, nul) in nuls.iter().enumerate() {
            for corner in [Corner::Lb, Corner::Ub] {
                let mut keys = KeyArena::with_capacity(0, 0);
                keys.push_corner_at(&cols, row, corner, &idxs);
                let want = keys.prefix(0);
                assert_eq!(
                    PrefixReader::new(&cols, corner, &idxs).at(row),
                    want,
                    "row {row}, {idxs:?}"
                );
                let t = cols.tuple(row);
                assert_eq!(prefix_of(idxs.iter().map(|&c| corner.of(&t.0[c]))), want);
                let string_key = 1 + mb + usize::from(nul.is_some()) + 2;
                assert_eq!(keys.key(0).len(), string_key + number_key, "row {row}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Optimized `normalize()` ≡ the historic merge/drop/sort semantics.
    #[test]
    fn normalize_matches_reference(rel in au_relation_strategy()) {
        let expect = normalize_reference(&rel);
        let got = rel.clone().normalize();
        prop_assert!(got.is_normalized());
        prop_assert_eq!(got.rows().len(), expect.len());
        for (row, (t, m)) in got.rows().iter().zip(&expect) {
            prop_assert_eq!(&row.tuple, t);
            prop_assert_eq!(&row.mult, m);
        }
    }

    /// The borrow-or-owned entry agrees with by-value normalize, and
    /// borrowing really happens on canonical inputs.
    #[test]
    fn normalized_cow_agrees_and_borrows(rel in au_relation_strategy()) {
        let owned = rel.clone().normalize();
        {
            let cow = rel.normalized();
            prop_assert_eq!(cow.rows().len(), owned.rows().len());
            for (a, b) in cow.rows().iter().zip(owned.rows()) {
                prop_assert_eq!(a, b);
            }
            prop_assert!(matches!(rel.normalized(), std::borrow::Cow::Owned(_)) || rel.is_normalized());
        }
        // Once canonical, normalized() must borrow (the fast path).
        let cow = owned.normalized();
        prop_assert!(matches!(cow, std::borrow::Cow::Borrowed(_)));
        // And normalize() on a canonical relation is the identity.
        let again = owned.clone().normalize();
        prop_assert_eq!(again.rows().len(), owned.rows().len());
        for (a, b) in again.rows().iter().zip(owned.rows()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Normalization is idempotent and blind to input row order.
    #[test]
    fn normalize_is_order_insensitive(rel in au_relation_strategy(), rot in 0usize..8) {
        let mut shuffled = rel.clone();
        if !shuffled.rows().is_empty() {
            let r = rot % shuffled.rows().len();
            shuffled.rows_mut().rotate_left(r);
        }
        let a = rel.normalize();
        let b = shuffled.normalize();
        prop_assert_eq!(a.rows().len(), b.rows().len());
        for (x, y) in a.rows().iter().zip(b.rows()) {
            prop_assert_eq!(x, y);
        }
    }
}
