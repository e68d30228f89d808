//! Zone verdicts against the rows they cover.
//!
//! `stats::zone_truth` reads a predicate over a zone's bound boxes
//! `[min lb, max ub]` instead of its rows. A definite verdict is a promise
//! about every row: `AllFalse` that no row is even possibly true,
//! `AllTrue` that every row is certainly true. The generators here draw
//! zones over every lane layout — `Int` (with `NULL`s), `Float` (NaN,
//! `-0.0`, infinities), `Str`, all-`NULL`, `Bool`, and `Generic` lanes
//! that mix classes — with uncertain cells, and predicates that compare
//! columns with columns and with literals (uncertain `RANGE` literals
//! too), nest `AND` / `OR` / `NOT`, and put arithmetic, bare columns and
//! predicates where values go. Every definite verdict of `zone_truth` and
//! of `range_verdict` (a row range across two zones) must agree with
//! `RangeExpr::truth` of every row it covers.

use audb::core::{
    range_verdict, zone_truth, AuColumns, AuRelation, AuTuple, Mult3, RangeExpr, RangeValue,
    TableStats, TruthRange, ZoneVerdict, ZONE_ROWS,
};
use audb::rel::{CmpOp, Schema, Value};
use proptest::prelude::*;

// ------------------------------------------------------------ generators

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.uniform(xs.len() as u64) as usize]
}

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.uniform(n) == 0
}

/// The attributes of every generated zone, one per lane layout.
const LANES: [&str; 7] = ["i", "f", "s", "n", "b", "g", "t"];

fn int(rng: &mut TestRng) -> Value {
    match rng.uniform(8) {
        0 => Value::Int(i64::MAX),
        1 => Value::Int(i64::MIN),
        _ => Value::Int(rng.uniform(13) as i64 - 6),
    }
}

fn float(rng: &mut TestRng) -> Value {
    match rng.uniform(10) {
        0 => Value::Float(f64::NAN),
        1 => Value::Float(-0.0),
        2 => Value::Float(f64::INFINITY),
        3 => Value::Float(f64::NEG_INFINITY),
        _ => Value::Float((rng.uniform(17) as f64 - 8.0) / 2.0),
    }
}

fn string(rng: &mut TestRng) -> Value {
    Value::str(*pick(rng, &["", "a", "ab", "b", "ba"]))
}

fn boolean(rng: &mut TestRng) -> Value {
    Value::Bool(one_in(rng, 2))
}

/// A value of any class.
fn any(rng: &mut TestRng) -> Value {
    match rng.uniform(5) {
        0 => Value::Null,
        1 => boolean(rng),
        2 => int(rng),
        3 => float(rng),
        _ => string(rng),
    }
}

/// A value of lane `lane`: the typed lanes sometimes hold a `NULL`, the
/// last two are `Generic` — every class, and `Bool` beside `Int`.
fn lane_value(rng: &mut TestRng, lane: usize) -> Value {
    if lane < 5 && lane != 1 && one_in(rng, 6) {
        return Value::Null;
    }
    match lane {
        0 => int(rng),
        1 => float(rng),
        2 => string(rng),
        3 => Value::Null,
        4 => boolean(rng),
        5 => any(rng),
        _ if one_in(rng, 2) => boolean(rng),
        _ => Value::Int(rng.uniform(5) as i64 - 2),
    }
}

/// A cell: certain two times in three, else three draws sorted into
/// `lb ≤ sg ≤ ub` under the total `Value` order.
fn range_of(rng: &mut TestRng, draw: impl Fn(&mut TestRng) -> Value) -> RangeValue {
    if !one_in(rng, 3) {
        return RangeValue::certain(draw(rng));
    }
    let mut v = [draw(rng), draw(rng), draw(rng)];
    v.sort();
    let [lb, sg, ub] = v;
    RangeValue::new(lb, sg, ub)
}

fn rows(rng: &mut TestRng, n: usize) -> Vec<AuTuple> {
    (0..n)
        .map(|_| AuTuple::new((0..LANES.len()).map(|lane| range_of(rng, |r| lane_value(r, lane)))))
        .collect()
}

/// A value expression: a column, a literal (sometimes an uncertain
/// `RANGE`), arithmetic, or a predicate standing where a value goes.
fn operand(rng: &mut TestRng, depth: u32) -> RangeExpr {
    match rng.uniform(if depth == 0 { 2 } else { 7 }) {
        0 => RangeExpr::col(rng.uniform(LANES.len() as u64) as usize),
        1 | 2 => RangeExpr::Lit(range_of(rng, any)),
        3 => RangeExpr::Add(
            Box::new(operand(rng, depth - 1)),
            Box::new(operand(rng, depth - 1)),
        ),
        4 => RangeExpr::Sub(
            Box::new(operand(rng, depth - 1)),
            Box::new(operand(rng, depth - 1)),
        ),
        5 if one_in(rng, 2) => RangeExpr::Neg(Box::new(operand(rng, depth - 1))),
        5 => RangeExpr::Mul(
            Box::new(operand(rng, depth - 1)),
            Box::new(operand(rng, depth - 1)),
        ),
        _ => predicate(rng, 0),
    }
}

/// A predicate: comparisons (column against literal most often), bare
/// columns and literals used as predicates, and `AND` / `OR` / `NOT`.
fn predicate(rng: &mut TestRng, depth: u32) -> RangeExpr {
    let op = *pick(
        rng,
        &[
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ],
    );
    match rng.uniform(if depth == 0 { 6 } else { 10 }) {
        0..=2 => RangeExpr::col(rng.uniform(LANES.len() as u64) as usize)
            .cmp(op, RangeExpr::Lit(range_of(rng, any))),
        3 => operand(rng, 2).cmp(op, operand(rng, 2)),
        4 => RangeExpr::col(rng.uniform(LANES.len() as u64) as usize),
        5 => RangeExpr::Lit(range_of(rng, boolean)),
        6 | 7 => predicate(rng, depth - 1).and(predicate(rng, depth - 1)),
        8 => RangeExpr::Or(
            Box::new(predicate(rng, depth - 1)),
            Box::new(predicate(rng, depth - 1)),
        ),
        _ => RangeExpr::Not(Box::new(predicate(rng, depth - 1))),
    }
}

/// One zone's rows (1 to 12) and a second table of two zones: rows `a`
/// repeated to fill zone 0, then rows `b`; plus eight predicates.
#[derive(Debug)]
struct Case {
    a: Vec<AuTuple>,
    b: Vec<AuTuple>,
    preds: Vec<RangeExpr>,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn generate(&self, rng: &mut TestRng) -> Case {
        let na = 1 + rng.uniform(12) as usize;
        let nb = 1 + rng.uniform(12) as usize;
        Case {
            a: rows(rng, na),
            b: rows(rng, nb),
            preds: (0..8).map(|_| predicate(rng, 3)).collect(),
        }
    }
}

// ---------------------------------------------------------------- checks

fn table(rows: impl IntoIterator<Item = AuTuple>) -> AuColumns {
    AuRelation::from_rows(
        Schema::new(LANES),
        rows.into_iter().map(|t| (t, Mult3::ONE)),
    )
    .to_columns()
}

/// A definite verdict holds for every row truth it covers.
fn agrees(verdict: ZoneVerdict, truths: impl IntoIterator<Item = TruthRange>) -> bool {
    truths.into_iter().all(|t| match verdict {
        ZoneVerdict::AllFalse => !t.ub,
        ZoneVerdict::AllTrue => t.lb,
        ZoneVerdict::Mixed => true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every definite zone verdict and range verdict agrees with the row
    /// semantics of every row it covers — over the typed lanes' statistics
    /// and over the same zone demoted to `Generic` lanes — and every
    /// selectivity estimate is a fraction.
    #[test]
    fn definite_verdicts_agree_with_every_row(case in Cases) {
        let (na, nb) = (case.a.len(), case.b.len());
        let one = table(case.a.iter().cloned());
        let one_stats = TableStats::of_columns(&one);
        let demoted = TableStats::of_columns(&one.to_generic());
        let repeated = (0..ZONE_ROWS).map(|r| case.a[r % na].clone());
        let two = TableStats::of_columns(&table(repeated.chain(case.b.iter().cloned())));
        let total = ZONE_ROWS + nb;
        let spans = [
            (0, ZONE_ROWS),
            (ZONE_ROWS, nb),
            (ZONE_ROWS - 3, 3 + nb.min(2)),
            (ZONE_ROWS - 1, nb + 1),
            (1, total - 1),
        ];
        for pred in &case.preds {
            let truth_a: Vec<TruthRange> = case.a.iter().map(|t| pred.truth(t)).collect();
            let truth_b: Vec<TruthRange> = case.b.iter().map(|t| pred.truth(t)).collect();
            let row = |r: usize| if r < ZONE_ROWS { truth_a[r % na] } else { truth_b[r - ZONE_ROWS] };
            for stats in [&one_stats, &demoted] {
                let verdict = zone_truth(pred, stats, 0);
                prop_assert!(agrees(verdict, truth_a.iter().copied()), "{:?} over {:?}: {:?}", pred, case.a, verdict);
            }
            for z in 0..2 {
                let verdict = zone_truth(pred, &two, z);
                let covered = (z * ZONE_ROWS..total.min((z + 1) * ZONE_ROWS)).map(row);
                prop_assert!(agrees(verdict, covered), "{:?} zone {}: {:?}", pred, z, verdict);
            }
            for (start, len) in spans {
                let verdict = range_verdict(pred, &two, start, len);
                prop_assert!(agrees(verdict, (start..start + len).map(row)), "{:?} rows {}+{}: {:?}", pred, start, len, verdict);
            }
        }
    }
}

/// The two shapes the verdict must not read off a box, each of which a
/// box evaluation gets wrong: a bare column used as a predicate (only
/// `Bool(true)` is true, so the box `[false, 2]` of a `Bool`/`Int` lane
/// reads `FALSE` although a row is `true`) and arithmetic (`10 - NULL` is
/// `NULL`, below `10 - 5`, so the box `[NULL, 5]` of `b` makes `a - b > 0`
/// certain although a row is `NULL > 0`). Both are `Mixed`.
#[test]
fn predicates_outside_the_monotone_fragment_are_mixed() {
    let cell = |v: Value| RangeValue::certain(v);
    let rows = [
        [Value::Bool(true), Value::Int(10), Value::Int(5)],
        [Value::Bool(false), Value::Int(10), Value::Null],
        [Value::Int(2), Value::Int(10), Value::Int(5)],
    ];
    let cols = AuRelation::from_rows(
        Schema::new(["t", "a", "b"]),
        rows.into_iter()
            .map(|r| (AuTuple::new(r.map(cell)), Mult3::ONE)),
    )
    .to_columns();
    let stats = TableStats::of_columns(&cols);
    let bare = RangeExpr::col(0);
    assert!(bare.truth(&cols.tuple(0)).lb, "row 0 is true");
    assert_eq!(zone_truth(&bare, &stats, 0), ZoneVerdict::Mixed);
    let diff = RangeExpr::Sub(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::col(2)));
    let pred = diff.cmp(CmpOp::Gt, RangeExpr::lit(0));
    assert!(!pred.truth(&cols.tuple(1)).ub, "row 1 is false");
    assert_eq!(zone_truth(&pred, &stats, 0), ZoneVerdict::Mixed);
    // A sibling still decides: FALSE AND unknown is FALSE.
    let never = RangeExpr::col(0).lt(RangeExpr::Lit(cell(Value::Null)));
    assert_eq!(
        zone_truth(&never.clone().and(bare), &stats, 0),
        ZoneVerdict::AllFalse
    );
    assert_eq!(
        zone_truth(&RangeExpr::Not(Box::new(never)), &stats, 0),
        ZoneVerdict::AllTrue
    );
}
