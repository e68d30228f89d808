//! The reply encoder against the one it replaced. `wire::relation_body`
//! writes `rows` / `mults` straight from a result's typed lanes; until
//! PR 24 it normalized *rows* and walked them `Value` by `Value`. That
//! walk is kept here, as the oracle: over every lane layout a result can
//! have, `relation_body(cols) ≡ oracle(cols.to_rows())`, byte for byte.

use audb::core::{AuColumns, AuRelation, AuTuple, Mult3, PhysType, RangeValue};
use audb::rel::{Schema, Value};
use audb::server::{wire, Json};
use proptest::prelude::*;

/// The row encoder as it stood: canonical order by `AuRelation::normalize`,
/// every cell the `[lb,sg,ub]` triple of the scalar `Json` of its kind.
fn oracle(rel: AuRelation) -> String {
    let rel = rel.normalize();
    let scalar = |v: &Value| match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::str(s.as_ref()),
    };
    let triple = |members: [Json; 3]| Json::Arr(members.to_vec());
    let rows = (rel.rows().iter())
        .map(|row| {
            let cells = row.tuple.0.iter();
            Json::Arr(
                cells
                    .map(|v| triple([scalar(&v.lb), scalar(&v.sg), scalar(&v.ub)]))
                    .collect(),
            )
        })
        .collect();
    let mults = (rel.rows().iter())
        .map(|row| {
            triple([row.mult.lb, row.mult.sg, row.mult.ub].map(|k| Json::Raw(k.to_string())))
        })
        .collect();
    Json::obj([
        (
            "schema",
            Json::Arr(rel.schema.cols().iter().map(Json::str).collect()),
        ),
        ("row_count", Json::Int(rel.len() as i64)),
        ("rows", Json::Arr(rows)),
        ("mults", Json::Arr(mults)),
    ])
    .to_string()
}

/// What a column holds, which decides its lanes' layout.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// `Int` only: `i64` lanes.
    Int,
    /// `Float` only — integral ones (they keep `.0`), `-0.0`, NaN and the
    /// infinities (`null`) among them: `f64` lanes.
    Float,
    /// Strings that need every escape: dictionary lanes.
    Str,
    /// `NULL`, `Bool` and the other classes mixed: `Generic` lanes.
    Mixed,
}

const KINDS: [Kind; 4] = [Kind::Int, Kind::Float, Kind::Str, Kind::Mixed];

const INTS: [i64; 6] = [i64::MIN, -7, 0, 3, 1_000_000_007, i64::MAX];

const FLOATS: [f64; 10] = [
    -123456789.0,
    -2.25,
    -0.0,
    0.0,
    0.5,
    7.0,
    1e15 + 0.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const STRINGS: [&str; 7] = [
    "",
    "plain",
    "he said \"hi\"",
    "back\\slash",
    "line\nbreak\r\ttab",
    "\u{1}\u{1f}control",
    "caf\u{e9} \u{1F600}",
];

/// One cell of a column of `kind` from a seed. In a `ranged` column about
/// a third of the cells are proper ranges and a few are *points whose
/// members print differently* — `[-0.0, 0.0, 0.0]`, `[3, 3.0, 3]`: equal
/// values, so the certainty bit is set, and not the same bytes.
fn cell(kind: Kind, ranged: bool, (pick, at, d1, d2): (u8, usize, u8, u8)) -> RangeValue {
    let ordered = |mut v: [Value; 3]| {
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue::new(lb, sg, ub)
    };
    let (range, odd_point) = (ranged && pick % 3 == 0, ranged && pick % 7 == 1);
    match kind {
        Kind::Int if range => {
            let x = INTS[1 + at % 4];
            RangeValue::new(x, x + i64::from(d1), x + i64::from(d1) + i64::from(d2))
        }
        Kind::Int => RangeValue::certain(INTS[at % INTS.len()]),
        Kind::Float if odd_point => RangeValue::new(-0.0, 0.0, 0.0),
        Kind::Float if range => {
            let x = FLOATS[at % 7];
            RangeValue::new(
                x,
                x + f64::from(d1) / 2.0,
                x + f64::from(d1) + f64::from(d2),
            )
        }
        Kind::Float => RangeValue::certain(FLOATS[at % FLOATS.len()]),
        Kind::Str if range => ordered(
            [at, at + usize::from(d1), at + usize::from(d2)].map(|i| Value::str(STRINGS[i % 7])),
        ),
        Kind::Str => RangeValue::certain(Value::str(STRINGS[at % STRINGS.len()])),
        Kind::Mixed if odd_point => RangeValue::new(3i64, 3.0f64, 3i64),
        Kind::Mixed => {
            let any = |i: usize| match i % 5 {
                0 => Value::Null,
                1 => Value::Bool(i % 4 < 2),
                2 => Value::Int(INTS[i % INTS.len()]),
                3 => Value::Float(FLOATS[i % 7]),
                _ => Value::str(STRINGS[i % STRINGS.len()]),
            };
            if range {
                ordered([
                    any(at),
                    any(at + usize::from(d1)),
                    any(at + usize::from(d2)),
                ])
            } else {
                RangeValue::certain(any(at))
            }
        }
    }
}

/// The columns of a result over `shape` (per attribute: what it holds, and
/// whether any cell is a range), from seeds: rows, some of them stored
/// twice (they merge under `normalize`), some annotated `(0,0,0)` (they
/// drop).
fn result(shape: &[(Kind, bool)], seeds: &[(Vec<(u8, usize, u8, u8)>, u8)]) -> AuColumns {
    let names: Vec<String> = (0..shape.len()).map(|c| format!("c{c}")).collect();
    let mut rows: Vec<(AuTuple, Mult3)> = (seeds.iter())
        .map(|(cells, mult)| {
            let tuple =
                (shape.iter().zip(cells)).map(|(&(kind, ranged), &seed)| cell(kind, ranged, seed));
            let mult = match mult % 5 {
                0 => Mult3::ZERO,
                1 => Mult3::new(0, 1, 1),
                2 => Mult3::new(1, 2, 4),
                _ => Mult3::ONE,
            };
            (AuTuple::new(tuple), mult)
        })
        .collect();
    let again: Vec<_> = rows.iter().step_by(3).cloned().collect();
    rows.extend(again);
    AuRelation::from_rows(Schema::new(names), rows).to_columns()
}

fn shape_strategy() -> impl Strategy<Value = Vec<(Kind, bool)>> {
    proptest::collection::vec(
        ((0..KINDS.len()).prop_map(|k| KINDS[k]), proptest::bool::ANY),
        1..4,
    )
}

fn seeds_strategy() -> impl Strategy<Value = Vec<(Vec<(u8, usize, u8, u8)>, u8)>> {
    let seed = (0u8..21, 0usize..64, 0u8..4, 0u8..4);
    proptest::collection::vec((proptest::collection::vec(seed, 3), 0u8..10), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lanes in, the same bytes out — as stored and from `Generic` lanes.
    #[test]
    fn lanes_encode_as_the_rows_they_hold_did(
        shape in shape_strategy(),
        seeds in seeds_strategy(),
    ) {
        let cols = result(&shape, &seeds);
        let want = oracle(cols.to_rows());
        prop_assert_eq!(&wire::relation_body(cols.clone()).to_string(), &want, "{:?}", shape);
        prop_assert_eq!(&wire::relation_body(cols.to_generic()).to_string(), &want, "generic lanes");
        // Already canonical: nothing is re-ordered, and nothing changes.
        prop_assert_eq!(&wire::relation_body(cols.normalize().expect("small multiplicities")).to_string(), &want, "normalized");
    }
}

/// What the property ranges over, said once without a generator: every
/// layout occurs certain and ranged, the points that must not be copied
/// are points, duplicates merge, zero rows drop — and the empty result.
#[test]
fn every_lane_layout_is_covered() {
    let seeds: Vec<(Vec<(u8, usize, u8, u8)>, u8)> = (0..40usize)
        .map(|i| {
            let seed = |c: usize| ((i + c) as u8 % 21, i * 3 + c, (i % 4) as u8, (i % 3) as u8);
            (vec![seed(0), seed(1), seed(2), seed(3)], i as u8 % 10)
        })
        .collect();
    for ranged in [false, true] {
        let shape: Vec<(Kind, bool)> = KINDS.iter().map(|&kind| (kind, ranged)).collect();
        let cols = result(&shape, &seeds);
        let layouts: Vec<PhysType> = cols.col_phys_types();
        assert_eq!(
            layouts,
            [
                PhysType::I64,
                PhysType::F64,
                PhysType::Str,
                PhysType::Generic
            ]
        );
        for c in 0..4 {
            assert_eq!(cols.col(c).is_certain(), !ranged, "column {c}");
            let points = (0..cols.len())
                .filter(|&i| cols.col(c).certain_at(i))
                .count();
            assert!(points > 0 && (!ranged || points < cols.len()), "column {c}");
        }
        let body = wire::relation_body(cols.clone()).to_string();
        assert_eq!(body, oracle(cols.to_rows()));
        let normalized = cols.clone().normalize().expect("small multiplicities");
        assert!(normalized.len() < cols.len(), "duplicates and zero rows");
        assert!(body.contains(&format!("\"row_count\":{}", normalized.len())));
        for text in [
            "7.0",
            "null",
            "\\\"hi\\\"",
            "back\\\\slash",
            "\\u0001",
            "\\n",
        ] {
            assert!(body.contains(text), "{text} in {body}");
        }
        if ranged {
            assert!(
                body.contains("[-0.0,0.0,0.0]") && body.contains("[3,3.0,3]"),
                "{body}"
            );
        }
    }
    let empty = AuColumns::empty(Schema::new(["a", "b"]));
    assert_eq!(
        wire::relation_body(empty.clone()).to_string(),
        "{\"schema\":[\"a\",\"b\"],\"row_count\":0,\"rows\":[],\"mults\":[]}"
    );
    assert_eq!(
        wire::relation_body(empty.clone()).to_string(),
        oracle(empty.to_rows())
    );
}
