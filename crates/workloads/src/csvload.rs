//! CSV → AU-relation loading for the SQL frontend (`repro sql`) and
//! scripted workloads.
//!
//! Builds on `audb_rel::csv` (dependency-free RFC-4180 reader) and folds a
//! flat header convention into range annotations:
//!
//! * a column `c` with sibling columns `c_lb` / `c_ub` becomes the
//!   range-annotated attribute `[c_lb / c / c_ub]` (either sibling may be
//!   omitted — the missing bound defaults to the base value);
//! * the column triple `mult_lb, mult_sg, mult_ub` (all three present)
//!   becomes the row's `ℕ³` multiplicity (default `(1,1,1)`);
//! * every other column is a certain attribute.
//!
//! Since the columnar refactor the loader builds [`AuColumns`] **directly**,
//! one attribute at a time: a column with no bound siblings becomes a
//! certain-collapsed column with zero per-cell work, a bounded column
//! builds its three bound vectors in one sweep (collapsing back to the
//! certain fast path when every cell turns out to be a point). The row
//! representation is derived from it on demand.
//!
//! The loader also **infers each attribute's physical layout** from its
//! cells (across all bound lanes jointly, so a ranged column's three
//! lanes always share one layout): all-integer attributes load as `i64`
//! lanes, all-string attributes dictionary-encode, and an attribute
//! mixing integer and float cells promotes to `f64` — the load boundary
//! is the *only* place an integer is ever rewritten as a float, and an
//! integer beyond ±2⁵³ contradicts the inferred `f64` layout and is a
//! spanned error rather than a silent rounding. Anything else (booleans,
//! nulls, string/number mixes) falls back to generic `Value` storage.
//!
//! Invalid input is reported as an `io::Error` spanning the offending
//! source location — ragged rows as `line N: ragged row …` (from
//! [`audb_rel::read_csv_lines`], which tracks real file lines across
//! skipped blanks), and `lb ≤ sg ≤ ub` violations (including `lb > ub`)
//! as `line N, column "c" (cols X–Y): …` naming the folded source
//! columns (`row N` instead of `line N` when the input is a
//! programmatic [`Relation`] with no tracked source lines). Nothing
//! panics and nothing is silently clamped.

use audb_core::physical::{int_fits_f64, CertBitmap, PhysVec};
use audb_core::{AuColumn, AuColumns, AuRelation, Mult3};
use audb_rel::{read_csv_lines, Relation, Schema, Value};
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
    /// `cols X–Y` — the 1-based span of source columns folded into this
    /// attribute (for error messages).
    fn col_span(&self) -> (usize, usize) {
        let idxs = [Some(self.sg), self.lb, self.ub];
        let mut it = idxs.iter().flatten();
        let first = *it.next().expect("sg always present");
        let (mut lo, mut hi) = (first, first);
        for &i in it {
            lo = lo.min(i);
            hi = hi.max(i);
        }
        (lo + 1, hi + 1)
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

/// A location/column-spanned loading error (`loc` is `line N` for CSV
/// input with tracked source lines, `row N` for programmatic relations).
fn bad_cell(loc: &str, span: &str, msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{loc}, {span}: {msg}"))
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
fn load_lane(
    vals: Vec<Value>,
    promote: bool,
    p: &ColPlan,
    loc_of: &dyn Fn(usize) -> String,
) -> io::Result<PhysVec> {
    if !promote {
        return Ok(PhysVec::from_values(vals));
    }
    let mut out = Vec::with_capacity(vals.len());
    for (ri, v) in vals.iter().enumerate() {
        out.push(match v {
            Value::Float(f) => *f,
            Value::Int(i) if int_fits_f64(*i) => *i as f64,
            Value::Int(i) => {
                let (a, b) = p.col_span();
                return Err(bad_cell(
                    &loc_of(ri),
                    &format!("column {:?} (cols {a}\u{2013}{b})", p.name),
                    format!(
                        "column inferred as f64 (mixed int/float cells), \
                         but integer {i} is not exactly representable"
                    ),
                ));
            }
            _ => unreachable!("promotion requires an all-numeric attribute"),
        });
    }
    Ok(PhysVec::F64(out))
}

/// Build one output attribute column from its source columns, validating
/// `lb ≤ sg ≤ ub` per cell and inferring the physical layout from the
/// cells (see the module docs). Bound-free attributes collapse to the
/// certain fast path; bounded attributes whose every cell is a point
/// collapse after the sweep.
fn build_attr_column(
    rel: &Relation,
    p: &ColPlan,
    loc_of: &dyn Fn(usize) -> String,
) -> io::Result<AuColumn> {
    let rows = &rel.rows;
    if p.lb.is_none() && p.ub.is_none() {
        let vals: Vec<Value> = rows.iter().map(|r| r.tuple.get(p.sg).clone()).collect();
        let promote = mixed_numeric(vals.iter());
        return Ok(AuColumn::Certain(load_lane(vals, promote, p, loc_of)?));
    }
    let mut lb: Vec<Value> = Vec::with_capacity(rows.len());
    let mut ub: Vec<Value> = Vec::with_capacity(rows.len());
    let mut sg: Vec<Value> = Vec::with_capacity(rows.len());
    let mut certain = CertBitmap::new();
    let mut all_certain = true;
    for (ri, row) in rows.iter().enumerate() {
        let s = row.tuple.get(p.sg);
        let l = p.lb.map_or(s, |i| row.tuple.get(i));
        let u = p.ub.map_or(s, |i| row.tuple.get(i));
        if !(l <= s && s <= u) {
            let (a, b) = p.col_span();
            return Err(bad_cell(
                &loc_of(ri),
                &format!("column {:?} (cols {a}\u{2013}{b})", p.name),
                format!("lb \u{2264} sg \u{2264} ub violated: [{l} / {s} / {u}]"),
            ));
        }
        let point = l == u;
        all_certain = all_certain && point;
        certain.push(point);
        lb.push(l.clone());
        sg.push(s.clone());
        ub.push(u.clone());
    }
    // The three bound lanes share one inferred class, so a ranged
    // column's lanes always land in the same physical layout.
    let promote = mixed_numeric(lb.iter().chain(sg.iter()).chain(ub.iter()));
    Ok(if all_certain {
        AuColumn::Certain(load_lane(sg, promote, p, loc_of)?)
    } else {
        AuColumn::Ranged {
            lb: load_lane(lb, promote, p, loc_of)?,
            sg: load_lane(sg, promote, p, loc_of)?,
            ub: load_lane(ub, promote, p, loc_of)?,
            certain,
        }
    })
}

/// Fold a deterministic relation (as read from CSV) straight into a
/// columnar AU-relation under the `_lb`/`_ub` + `mult_*` header
/// convention, building one [`AuColumn`] per output attribute.
/// `loc_of` renders a data-row index as its source location (`line N`
/// when real file lines are known, `row N` otherwise — used in error
/// spans).
fn build_columns(rel: &Relation, loc_of: &dyn Fn(usize) -> String) -> io::Result<AuColumns> {
    let (plans, mult_cols) = plan_columns(&rel.schema);
    let schema = Schema::new(plans.iter().map(|p| p.name.clone()));
    let mut cols = Vec::with_capacity(plans.len());
    for p in &plans {
        cols.push(build_attr_column(rel, p, loc_of)?);
    }
    let mults: Vec<Mult3> = match mult_cols {
        None => rel.rows.iter().map(|r| Mult3::certain(r.mult)).collect(),
        Some([l, s, u]) => {
            let (lo, hi) = (l.min(s).min(u) + 1, l.max(s).max(u) + 1);
            let span = format!("columns mult_lb\u{2013}mult_ub (cols {lo}\u{2013}{hi})");
            let mut mults = Vec::with_capacity(rel.rows.len());
            for (ri, row) in rel.rows.iter().enumerate() {
                let get = |i: usize, what: &str| -> io::Result<u64> {
                    row.tuple
                        .get(i)
                        .as_i64()
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| {
                            bad_cell(
                                &loc_of(ri),
                                &span,
                                format!("{what} is not a non-negative integer"),
                            )
                        })
                };
                let (l, s, u) = (get(l, "mult_lb")?, get(s, "mult_sg")?, get(u, "mult_ub")?);
                if !(l <= s && s <= u) {
                    return Err(bad_cell(
                        &loc_of(ri),
                        &span,
                        format!("multiplicity violates lb \u{2264} sg \u{2264} ub: ({l},{s},{u})"),
                    ));
                }
                mults.push(Mult3::new(l, s, u));
            }
            mults
        }
    };
    Ok(AuColumns::from_cols(schema, cols, &mults))
}

/// Fold a deterministic relation into a columnar AU-relation. Errors
/// name the offending 1-based data row (`row N`) — the relation may be
/// programmatic, so no file line is fabricated; use
/// [`read_au_csv_columns`] for exact source lines.
pub fn au_columns_from_relation(rel: &Relation) -> io::Result<AuColumns> {
    build_columns(rel, &|ri| format!("row {}", ri + 1))
}

/// Fold a deterministic relation into a (row-layout) AU-relation — the
/// compatibility wrapper over [`au_columns_from_relation`].
pub fn au_from_relation(rel: &Relation) -> io::Result<AuRelation> {
    au_columns_from_relation(rel).map(|c| c.to_rows())
}

/// Read a columnar AU-relation from CSV text (errors carry exact source
/// line numbers).
pub fn read_au_csv_columns(reader: impl Read) -> io::Result<AuColumns> {
    let (rel, lines) = read_csv_lines(reader)?;
    build_columns(&rel, &|ri| format!("line {}", lines[ri]))
}

/// Read an AU-relation from CSV text.
pub fn read_au_csv(reader: impl Read) -> io::Result<AuRelation> {
    read_au_csv_columns(reader).map(|c| c.to_rows())
}

/// Load an AU-relation from a CSV file.
pub fn load_au_csv(path: impl AsRef<Path>) -> io::Result<AuRelation> {
    read_au_csv(File::open(path)?)
}

/// Load every `*.csv` in a directory as `(file stem, relation)` pairs, in
/// name order — the table set `repro sql` registers.
pub fn load_au_dir(dir: impl AsRef<Path>) -> io::Result<Vec<(String, AuRelation)>> {
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
            let rel = load_au_csv(&p)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", p.display())))?;
            Ok((name, rel))
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

    #[test]
    fn programmatic_relations_report_rows_not_lines() {
        // No file behind the relation: the error names the data row, not
        // a fabricated source line.
        let rel = audb_rel::read_csv("a_lb,a,a_ub\n5,4,6\n".as_bytes()).unwrap();
        let e = au_from_relation(&rel).unwrap_err();
        assert!(e.to_string().contains("row 1"), "{e}");
        assert!(!e.to_string().contains("line"), "{e}");
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
