//! CSV → AU-relation loading for the SQL frontend (`repro sql`), the
//! server's `/register` and `/append`, and scripted workloads.
//!
//! Reads with `audb_rel::csv`'s one tokenizer and folds a flat header
//! convention into range annotations:
//!
//! * a column `c` with sibling columns `c_lb` / `c_ub` becomes the
//!   range-annotated attribute `[c_lb / c / c_ub]` (either sibling may be
//!   omitted — the missing bound defaults to the base value);
//! * the column triple `mult_lb, mult_sg, mult_ub` (all three present)
//!   becomes the row's `ℕ³` multiplicity (default `(1,1,1)`), read as `u64`s;
//! * every other column is a certain attribute.
//!
//! Bytes become [`AuColumns`] in one pass with no row form: each source
//! column is read into `i64` lanes while every cell is an integer (no
//! `Value` is built for one) and into `Value`s from the first that is not.
//! An all-integer attribute is checked and built on its `i64` lanes and
//! collapses to the certain fast path when every cell is a point. Any other
//! attribute's **physical layout is inferred** from its cells, jointly over
//! its bound lanes so they share one layout: all-string attributes
//! dictionary-encode, and an attribute mixing integer and float cells
//! promotes to `f64` — the only place an integer is ever rewritten as a
//! float; one beyond ±2⁵³ is an error, never a silent rounding. Anything
//! else (booleans, nulls, string/number mixes) stays generic `Value`s. An
//! unquoted integer literal past `i64` is an error too.
//!
//! Invalid input is an `io::Error` naming its source line (`line N`, blank
//! lines counted): ragged rows, and cell errors such as `lb ≤ sg ≤ ub`
//! violations with the folded source columns (`column "c" (cols X–Y)`).
//! Nothing panics and nothing is silently clamped.

use audb_core::physical::{int_fits_f64, CertBitmap, PhysVec};
use audb_core::{AuColumn, AuColumns, AuRelation, Mult3};
use audb_rel::csv::{Cell, Records};
use audb_rel::{Schema, Value};
use std::fmt::Display;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// How one output attribute maps onto input columns.
struct ColPlan {
    name: String,
    sg: usize,
    lb: Option<usize>,
    ub: Option<usize>,
}

impl ColPlan {
    fn cols(&self) -> impl Iterator<Item = usize> {
        [Some(self.sg), self.lb, self.ub].into_iter().flatten()
    }

    /// `column "c" (cols X–Y)`: the 1-based span of the source columns
    /// folded into this attribute.
    fn span(&self) -> String {
        let (lo, hi) = (self.cols().min(), self.cols().max());
        let [lo, hi] = [lo, hi].map(|c| c.unwrap_or(self.sg) + 1);
        format!("column {:?} (cols {lo}\u{2013}{hi})", self.name)
    }
}

fn plan_columns(schema: &Schema) -> (Vec<ColPlan>, Option<[usize; 3]>) {
    let cols = schema.cols();
    let has = |name: &str| schema.index_of(name);
    let mult = match (has("mult_lb"), has("mult_sg"), has("mult_ub")) {
        (Some(l), Some(s), Some(u)) => Some([l, s, u]),
        _ => None,
    };
    let is_mult_col = |i: usize| mult.is_some_and(|m| m.contains(&i));
    let mut plans = Vec::new();
    for (i, name) in cols.iter().enumerate() {
        if is_mult_col(i) {
            continue;
        }
        // A bound column of an existing base attribute is folded, not kept.
        if let Some(base) = name
            .strip_suffix("_lb")
            .or_else(|| name.strip_suffix("_ub"))
        {
            if has(base).is_some() {
                continue;
            }
        }
        plans.push(ColPlan {
            name: name.clone(),
            sg: i,
            lb: has(&format!("{name}_lb")),
            ub: has(&format!("{name}_ub")),
        });
    }
    (plans, mult)
}

/// A line/column-spanned loading error.
fn bad_cell(line: usize, span: &str, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {line}, {span}: {msg}"),
    )
}

/// One source column's cells: `i64`s while every cell is an integer,
/// `Value`s from the first that is not.
#[derive(Clone)]
enum Lane {
    Int(Vec<i64>),
    Values(Vec<Value>),
}

impl Lane {
    fn into_values(self) -> Vec<Value> {
        match self {
            Lane::Int(ints) => ints.into_iter().map(Value::Int).collect(),
            Lane::Values(vals) => vals,
        }
    }
}

/// True iff the cells span both integers and floats but nothing else —
/// the one case where the loader promotes integers to `f64`
/// ([`PhysVec::from_values`] itself never rewrites a value's class).
fn mixed_numeric<'a>(vals: impl Iterator<Item = &'a Value>) -> bool {
    let (mut int, mut float, mut other) = (false, false, false);
    for v in vals {
        match v {
            Value::Int(_) => int = true,
            Value::Float(_) => float = true,
            _ => other = true,
        }
    }
    int && float && !other
}

/// Materialize one bound lane under the inferred layout: a promoted lane
/// builds its `f64` vector directly, erroring on any integer `f64`
/// cannot represent exactly (a cell contradicting the inferred type);
/// otherwise [`PhysVec::from_values`] picks the class-strict layout.
fn load_lane(vals: Vec<Value>, promote: bool, p: &ColPlan, lines: &[usize]) -> io::Result<PhysVec> {
    if !promote {
        return Ok(PhysVec::from_values(vals));
    }
    let mut out = Vec::with_capacity(vals.len());
    for (ri, v) in vals.iter().enumerate() {
        out.push(match v {
            Value::Float(f) => *f,
            Value::Int(i) if int_fits_f64(*i) => *i as f64,
            Value::Int(i) => {
                let msg = format!(
                    "column inferred as f64 (mixed int/float cells), \
                     but integer {i} is not exactly representable"
                );
                return Err(bad_cell(lines[ri], &p.span(), msg));
            }
            _ => unreachable!("promotion requires an all-numeric attribute"),
        });
    }
    Ok(PhysVec::F64(out))
}

/// `lb ≤ sg ≤ ub` on every row, or an error naming the first that breaks it.
fn check_order<T: PartialOrd + Display>(
    p: &ColPlan,
    [lb, sg, ub]: [&[T]; 3],
    lines: &[usize],
) -> io::Result<()> {
    for (ri, ((l, s), u)) in lb.iter().zip(sg).zip(ub).enumerate() {
        if !(l <= s && s <= u) {
            let msg = format!("lb \u{2264} sg \u{2264} ub violated: [{l} / {s} / {u}]");
            return Err(bad_cell(lines[ri], &p.span(), msg));
        }
    }
    Ok(())
}

/// Build one output attribute column from its source lanes (a missing
/// bound is the selected guess), validating `lb ≤ sg ≤ ub` per cell and
/// inferring the layout (see the module docs).
fn fold_attr(
    p: &ColPlan,
    sg: Lane,
    [lb, ub]: [Option<Lane>; 2],
    lines: &[usize],
) -> io::Result<AuColumn> {
    if lb.is_none() && ub.is_none() {
        return Ok(AuColumn::Certain(match sg {
            Lane::Int(ints) if !ints.is_empty() => PhysVec::I64(ints),
            sg => {
                let vals = sg.into_values();
                let promote = mixed_numeric(vals.iter());
                load_lane(vals, promote, p, lines)?
            }
        }));
    }
    let [lb, ub] = [lb, ub].map(|b| b.unwrap_or_else(|| sg.clone()));
    let [lb, sg, ub] = match (lb, sg, ub) {
        (Lane::Int(lb), Lane::Int(sg), Lane::Int(ub)) if !sg.is_empty() => {
            check_order(p, [&lb[..], &sg, &ub], lines)?;
            return Ok(AuColumn::from_lanes([lb, sg, ub].map(PhysVec::I64)));
        }
        lanes => <[Lane; 3]>::from(lanes).map(Lane::into_values),
    };
    check_order(p, [&lb[..], &sg, &ub], lines)?;
    // The three bound lanes share one inferred class, so a ranged
    // column's lanes always land in the same physical layout.
    let promote = mixed_numeric(lb.iter().chain(&sg).chain(&ub));
    let certain = CertBitmap::from_fn(sg.len(), |i| lb[i] == ub[i]);
    Ok(if certain.count_certain() == sg.len() {
        AuColumn::Certain(load_lane(sg, promote, p, lines)?)
    } else {
        AuColumn::Ranged {
            lb: load_lane(lb, promote, p, lines)?,
            sg: load_lane(sg, promote, p, lines)?,
            ub: load_lane(ub, promote, p, lines)?,
            certain,
        }
    })
}

/// The rows' multiplicities from the `mult_*` columns `cols` read as
/// `lanes`, `lb ≤ sg ≤ ub` checked per row; `bad` is each lane's first row
/// whose cell was no `u64`.
fn fold_mults(
    [l, s, u]: [usize; 3],
    lanes: &[Vec<u64>; 3],
    bad: [Option<usize>; 3],
    lines: &[usize],
) -> io::Result<Vec<Mult3>> {
    let (lo, hi) = (l.min(s).min(u) + 1, l.max(s).max(u) + 1);
    let span = format!("columns mult_lb\u{2013}mult_ub (cols {lo}\u{2013}{hi})");
    let mut out = Vec::with_capacity(lines.len());
    for (ri, &line) in lines.iter().enumerate() {
        let get = |k: usize| match bad[k] == Some(ri) {
            true => {
                let what = ["mult_lb", "mult_sg", "mult_ub"][k];
                let msg = format!("{what} is not a non-negative integer");
                Err(bad_cell(line, &span, msg))
            }
            false => Ok(lanes[k][ri]),
        };
        let (l, s, u) = (get(0)?, get(1)?, get(2)?);
        if !(l <= s && s <= u) {
            let msg = format!("multiplicity violates lb \u{2264} sg \u{2264} ub: ({l},{s},{u})");
            return Err(bad_cell(line, &span, msg));
        }
        out.push(Mult3::new(l, s, u));
    }
    Ok(out)
}

/// Read a columnar AU-relation from CSV text, in one pass from bytes to
/// lanes (errors carry exact source line numbers).
pub fn read_au_csv_columns(mut reader: impl Read) -> io::Result<AuColumns> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let (header, mut records) = Records::new(&input)?;
    let mut uses = vec![0usize; header.len()];
    let (plans, mult_cols) = plan_columns(&Schema::new(header));
    // How many attributes read each source column (duplicate names share).
    plans
        .iter()
        .flat_map(ColPlan::cols)
        .for_each(|c| uses[c] += 1);
    // Every line after the header may be a row: size the lanes read once,
    // so none is copied as it grows and none keeps growth slack. (Newlines
    // are counted into a `u8` per 255 bytes, a loop the compiler
    // vectorizes.)
    let newlines = |run: &[u8]| run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    let rows: usize = input
        .chunks(255)
        .map(|run| usize::from(newlines(run)))
        .sum();
    let cap = |read: bool| if read { rows } else { 0 };
    let mut lanes: Vec<_> = uses
        .iter()
        .map(|&u| Lane::Int(Vec::with_capacity(cap(u > 0))))
        .collect();
    // The `mult_*` cells as `u64`s, and the first row where each is none.
    let mut mults = [(); 3].map(|_| Vec::with_capacity(cap(mult_cols.is_some())));
    let mut bad = [None; 3];
    let (mut fields, mut lines) = (Vec::new(), Vec::with_capacity(rows));
    while let Some(line) = records.next_into(&mut fields)? {
        for (c, (lane, f)) in lanes.iter_mut().zip(&fields).enumerate() {
            if uses[c] == 0 {
                continue;
            }
            match (f.cell(), &mut *lane) {
                (Cell::Int(i), Lane::Int(ints)) => ints.push(i),
                (Cell::BigInt(t), _) => {
                    let p = plans.iter().find(|p| p.cols().any(|pc| pc == c));
                    let span = p.map(ColPlan::span).unwrap_or_default();
                    let msg = format!("integer {t} out of range for i64");
                    return Err(bad_cell(line, &span, msg));
                }
                (Cell::Int(i), Lane::Values(vals)) => vals.push(Value::Int(i)),
                (Cell::Other(v), Lane::Values(vals)) => vals.push(v),
                (Cell::Other(v), Lane::Int(ints)) => {
                    let vals = ints.drain(..).map(Value::Int).chain([v]).collect();
                    *lane = Lane::Values(vals);
                }
            }
        }
        for (k, c) in mult_cols.into_iter().flatten().enumerate() {
            let m = match fields[c].cell() {
                Cell::Int(i) => u64::try_from(i).ok(),
                Cell::BigInt(t) => t.parse().ok(),
                Cell::Other(_) => None,
            };
            if m.is_none() {
                bad[k].get_or_insert(lines.len());
            }
            mults[k].push(m.unwrap_or(0));
        }
        lines.push(line);
    }
    let mut take = |c: usize| {
        uses[c] -= 1;
        match uses[c] {
            0 => std::mem::replace(&mut lanes[c], Lane::Int(Vec::new())),
            _ => lanes[c].clone(),
        }
    };
    let mut cols = Vec::with_capacity(plans.len());
    for p in &plans {
        let bounds = [p.lb.map(&mut take), p.ub.map(&mut take)];
        cols.push(fold_attr(p, take(p.sg), bounds, &lines)?);
    }
    let mults = match mult_cols {
        None => vec![Mult3::ONE; lines.len()],
        Some(cols) => fold_mults(cols, &mults, bad, &lines)?,
    };
    let schema = Schema::new(plans.iter().map(|p| p.name.clone()));
    Ok(AuColumns::from_cols(schema, cols, &mults))
}

/// Read an AU-relation from CSV text.
pub fn read_au_csv(reader: impl Read) -> io::Result<AuRelation> {
    read_au_csv_columns(reader).map(|c| c.to_rows())
}

/// Load an AU-relation from a CSV file.
pub fn load_au_csv(path: impl AsRef<Path>) -> io::Result<AuRelation> {
    read_au_csv(File::open(path)?)
}

/// Load every `*.csv` in a directory as `(file stem, columns)` pairs, in
/// name order — the table set `repro sql` registers.
pub fn load_au_dir(dir: impl AsRef<Path>) -> io::Result<Vec<(String, AuColumns)>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let cols = File::open(&p).and_then(read_au_csv_columns);
            let cols =
                cols.map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", p.display())))?;
            Ok((name, cols))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::RangeValue;

    #[test]
    fn bounds_and_mult_columns_fold() {
        let csv = "sku,price_lb,price,price_ub,mult_lb,mult_sg,mult_ub\n\
                   1,9,10,12,1,1,1\n\
                   2,15,15,15,0,1,1\n";
        let au = read_au_csv(csv.as_bytes()).unwrap();
        assert_eq!(au.schema.cols(), &["sku", "price"]);
        assert_eq!(au.rows()[0].tuple.get(0), &RangeValue::certain(1i64));
        assert_eq!(au.rows()[0].tuple.get(1), &RangeValue::new(9, 10, 12));
        assert_eq!(au.rows()[0].mult, Mult3::ONE);
        assert_eq!(au.rows()[1].mult, Mult3::new(0, 1, 1));
    }

    #[test]
    fn columnar_load_uses_certain_fast_path() {
        let csv = "sku,price_lb,price,price_ub\n1,9,10,12\n2,3,4,5\n";
        let cols = read_au_csv_columns(csv.as_bytes()).unwrap();
        assert!(cols.col(0).is_certain());
        assert!(!cols.col(1).is_certain());
        // A bounded column whose cells are all points collapses too.
        let cols = read_au_csv_columns("a,a_ub\n1,1\n2,2\n".as_bytes()).unwrap();
        assert!(cols.col(0).is_certain());
        // And the columnar load agrees with the row load.
        let csv = "a,a_lb,b,mult_lb,mult_sg,mult_ub\n1,0,x,0,1,2\n3,3,y,1,1,1\n";
        let cols = read_au_csv_columns(csv.as_bytes()).unwrap();
        let rows = read_au_csv(csv.as_bytes()).unwrap();
        assert!(cols.to_rows().bag_eq(&rows));
    }

    #[test]
    fn load_infers_typed_physical_layouts() {
        use audb_core::PhysType;
        // all-int → i64, any float among numerics → f64, all-string →
        // dictionary, string/number mix → generic fallback.
        let csv = "i,f,s,g\n1,1.5,x,1\n2,2,y,z\n";
        let cols = read_au_csv_columns(csv.as_bytes()).unwrap();
        assert_eq!(
            cols.col_phys_types(),
            vec![
                PhysType::I64,
                PhysType::F64,
                PhysType::Str,
                PhysType::Generic
            ]
        );
        // A ranged attribute's lanes share one inferred layout: an
        // all-int lb lane promotes along with its float sg lane.
        let cols = read_au_csv_columns("a_lb,a\n1,1.5\n2,3.5\n".as_bytes()).unwrap();
        assert!(!cols.col(0).is_certain());
        assert_eq!(cols.col_phys_types(), vec![PhysType::F64]);
    }

    #[test]
    fn mixed_numeric_promotes_with_representability_check() {
        // The promoted integer reads back as a float — logically equal
        // to the int under the Value order.
        let cols = read_au_csv_columns("a\n1.5\n2\n".as_bytes()).unwrap();
        let rows = cols.to_rows();
        assert_eq!(
            rows.rows()[1].tuple.get(0),
            &RangeValue::certain(Value::Float(2.0))
        );
        assert_eq!(rows.rows()[1].tuple.get(0), &RangeValue::certain(2i64));
        // An integer beyond ±2^53 contradicts the inferred f64 layout:
        // spanned error, never a silent rounding.
        let big = (1i64 << 53) + 1;
        let e = read_au_csv(format!("a\n0.5\n{big}\n").as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        assert!(
            e.to_string().contains("column \"a\" (cols 1\u{2013}1)"),
            "{e}"
        );
        assert!(e.to_string().contains("not exactly representable"), "{e}");
        // The same int in an all-int column is fine — i64 lanes are exact.
        let cols = read_au_csv_columns(format!("a\n1\n{big}\n").as_bytes()).unwrap();
        assert_eq!(
            cols.to_rows().rows()[1].tuple.get(0),
            &RangeValue::certain(big)
        );
    }

    #[test]
    fn plain_csv_is_fully_certain() {
        let csv = "a,b\n1,x\n2,y\n";
        let au = read_au_csv(csv.as_bytes()).unwrap();
        assert_eq!(au.schema.cols(), &["a", "b"]);
        assert!(au
            .rows()
            .iter()
            .all(|r| r.mult == Mult3::ONE && r.tuple.0.iter().all(|v| v.is_certain())));
    }

    #[test]
    fn one_sided_bounds_and_standalone_suffix_names() {
        // `a_ub` without `a_lb` bounds only from above; `z_lb` without a
        // base `z` stays a standalone certain column.
        let csv = "a,a_ub,z_lb\n1,3,7\n";
        let au = read_au_csv(csv.as_bytes()).unwrap();
        assert_eq!(au.schema.cols(), &["a", "z_lb"]);
        assert_eq!(au.rows()[0].tuple.get(0), &RangeValue::new(1, 1, 3));
        assert_eq!(au.rows()[0].tuple.get(1), &RangeValue::certain(7i64));
    }

    #[test]
    fn lb_gt_ub_cells_error_with_line_and_column_span() {
        // Row on file line 3 (line 1 header, line 2 valid): the error must
        // name the line and the folded source-column span, not panic or
        // clamp.
        let e = read_au_csv("a_lb,a,a_ub\n1,2,3\n5,4,6\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        assert!(
            e.to_string().contains("column \"a\" (cols 1\u{2013}3)"),
            "{e}"
        );
        // Blank lines are skipped but do not shift the reported line.
        let e = read_au_csv("a_lb,a,a_ub\n\n\n5,4,6\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
        // lb > ub via a one-sided bound.
        let e = read_au_csv("a,a_ub\n5,4\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(e.to_string().contains("cols 1\u{2013}2"), "{e}");
    }

    /// An integer literal past `i64` in an attribute is refused with its
    /// line and span, never rounded into an `f64` lane.
    #[test]
    fn an_integer_past_i64_is_refused_not_rounded() {
        let e = read_au_csv_columns("a\n1\n99999999999999999999\n".as_bytes()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 3, column \"a\" (cols 1\u{2013}1): integer 99999999999999999999 out of range for i64"
        );
    }

    #[test]
    fn an_integer_past_i64_in_a_bound_is_refused() {
        let csv = "a_lb,a,a_ub\n1,2,99999999999999999999\n";
        let e = read_au_csv_columns(csv.as_bytes()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 2, column \"a\" (cols 1\u{2013}3): integer 99999999999999999999 out of range for i64"
        );
    }

    /// A multiplicity is a `u64`: one past `i64::MAX` loads.
    #[test]
    fn a_multiplicity_past_i64_loads() {
        let csv = "a,mult_lb,mult_sg,mult_ub\n1,1,1,18446744073709551615\n";
        let cols = read_au_csv_columns(csv.as_bytes()).unwrap();
        assert_eq!(cols.mult(0), Mult3::new(1, 1, u64::MAX));
        let csv = "a,mult_lb,mult_sg,mult_ub\n1,1,1,18446744073709551616\n";
        let e = read_au_csv_columns(csv.as_bytes()).unwrap_err();
        assert!(
            e.to_string()
                .contains("mult_ub is not a non-negative integer"),
            "{e}"
        );
    }

    /// A leading NUL byte is data, in a cell and in a header name.
    #[test]
    fn a_leading_nul_is_kept() {
        let cols = read_au_csv_columns("a\n\u{0}x\n".as_bytes()).unwrap();
        assert_eq!(cols.col(0).range_value(0), RangeValue::certain("\u{0}x"));
        let cols = read_au_csv_columns("\u{0}a\n1\n".as_bytes()).unwrap();
        assert_eq!(cols.schema().cols(), &["\u{0}a"]);
    }

    #[test]
    fn ragged_rows_error_with_line() {
        let e = read_au_csv("a,b\n1,2\n1\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        assert!(e.to_string().contains("ragged row"), "{e}");
        let e = read_au_csv("a,b\n1,2,3\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn invalid_mults_are_errors_not_panics() {
        let e = read_au_csv("a,mult_lb,mult_sg,mult_ub\n1,2,1,1\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("multiplicity"), "{e}");
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(e.to_string().contains("cols 2\u{2013}4"), "{e}");
        let e = read_au_csv("a,mult_lb,mult_sg,mult_ub\n1,-1,1,1\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("mult_lb"), "{e}");
    }
}
