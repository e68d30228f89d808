//! The AU-CSV ingest path against the reader it replaced, on generated
//! bytes.
//!
//! `audb_workloads::read_au_csv_columns` goes from bytes to typed lanes in
//! one pass. The oracle below is the path it replaced, kept verbatim: a
//! row-form `Relation` first (`read_csv_lines`, with its per-field
//! `String`s and NUL quote marker), then `build_columns` folding
//! `Vec<Value>` lanes. The properties: no input panics either reader; on
//! inputs where the two are meant to agree (no NUL byte — the old marker
//! ate it — and no integer literal past `i64`, which the new reader
//! refuses or reads as a `u64` multiplicity) they accept the same inputs
//! and build the same columns lane for lane — layouts, values, certainty
//! bits, multiplicities — or fail with the same kind and message; every
//! `line N` an error names is a line of the input; and the server's
//! `/register` and `/append` answer 200 or 400 on the same bytes.

use audb::core::physical::{int_fits_f64, CertBitmap, PhysVec};
use audb::core::{AuColumn, AuColumns, Mult3};
use audb::engine::{Engine, Session, SharedCatalog};
use audb::rel::{Relation, Schema, Tuple, Value};
use audb::server::http::Request;
use audb::server::{wire, ConnState, Json, ServerState};
use audb::workloads::read_au_csv_columns;
use proptest::prelude::*;
use std::io::{self, BufRead, BufReader, Read};

// ----------------------------------------------------------------- oracle

/// Parse one CSV line into fields (handles quotes and embedded commas).
fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    let mut was_quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() && !was_quoted => {
                quoted = true;
                was_quoted = true;
            }
            ',' if !quoted => {
                fields.push(finish(&mut cur, &mut was_quoted));
            }
            c => cur.push(c),
        }
    }
    fields.push(finish(&mut cur, &mut was_quoted));
    return fields;

    fn finish(cur: &mut String, was_quoted: &mut bool) -> String {
        let s = std::mem::take(cur);
        let s = if *was_quoted {
            format!("\u{0}{s}") // NUL marker: force string typing
        } else {
            s
        };
        *was_quoted = false;
        s
    }
}

fn parse_value(field: &str) -> Value {
    if let Some(stripped) = field.strip_prefix('\u{0}') {
        return Value::str(stripped);
    }
    let t = field.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Value::Float(f);
    }
    match t {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        _ => Value::str(t),
    }
}

/// Read a relation from CSV. The first line is the header (schema); every
/// data row gets multiplicity 1.
pub fn read_csv(reader: impl Read) -> io::Result<Relation> {
    read_csv_lines(reader).map(|(rel, _)| rel)
}

/// Like [`read_csv`], also returning the 1-based file line number of every
/// data row (blank lines are skipped, so a row's index and its source line
/// diverge — error reporting wants the latter). Ragged rows are rejected
/// with a line-spanned error naming the field count mismatch.
pub fn read_csv_lines(reader: impl Read) -> io::Result<(Relation, Vec<usize>)> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty csv"))??;
    let cols = split_line(&header)
        .into_iter()
        .map(|c| c.trim_start_matches('\u{0}').to_string())
        .collect::<Vec<_>>();
    let schema = Schema::new(cols);
    let mut rel = Relation::empty(schema.clone());
    let mut row_lines = Vec::new();
    for (li, line) in lines.enumerate() {
        let line = line?;
        let lineno = li + 2; // 1-based; line 1 is the header.
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(&line);
        if fields.len() != schema.arity() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {lineno}: ragged row — {} fields (cols 1\u{2013}{}), header has {}",
                    fields.len(),
                    fields.len(),
                    schema.arity()
                ),
            ));
        }
        rel.push(Tuple::new(fields.iter().map(|f| parse_value(f))), 1);
        row_lines.push(lineno);
    }
    Ok((rel, row_lines))
}
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

/// The replaced `read_au_csv_columns`.
fn oracle(bytes: &[u8]) -> io::Result<AuColumns> {
    let (rel, lines) = read_csv_lines(bytes)?;
    build_columns(&rel, &|ri| format!("line {}", lines[ri]))
}

// -------------------------------------------------------------- generator

/// CSV-biased bytes: mostly AU tables ([`au_table`]), sometimes any
/// string of the CSV alphabet ([`raw_bytes`]).
struct CsvBytes;

impl Strategy for CsvBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        match one_in(rng, 6) {
            true => raw_bytes(rng),
            false => au_table(rng),
        }
    }
}

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.uniform(n) == 0
}

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.uniform(xs.len() as u64) as usize]
}

/// The alphabet: digits, signs, `.`, `e`, commas, quotes, `\r`, `\n`,
/// blanks, `true`, header suffixes, non-ASCII text and bytes that are
/// not UTF-8.
const TOKENS: &[&[u8]] = &[
    b"0",
    b"1",
    b"7",
    b"42",
    b"-",
    b"+",
    b".",
    b"e",
    b",",
    b",",
    b"\"",
    b"\"\"",
    b"\r",
    b"\n",
    b"\r\n",
    b" ",
    b"\t",
    b"true",
    b"a",
    b"_lb",
    b"_ub",
    b"mult_lb",
    b"mult_sg",
    b"mult_ub",
    "é".as_bytes(),
    "日本".as_bytes(),
    "\u{a0}".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\x80",
];

/// Any string of the alphabet; half of them UTF-8.
fn raw_bytes(rng: &mut TestRng) -> Vec<u8> {
    let tokens = match one_in(rng, 2) {
        true => TOKENS,
        false => &TOKENS[..TOKENS.len() - 3],
    };
    let mut out = Vec::new();
    for _ in 0..rng.uniform(120) {
        out.extend_from_slice(pick::<&[u8]>(rng, tokens));
    }
    out
}

/// How an attribute's cells are drawn.
#[derive(Clone, Copy)]
enum Class {
    Int,
    /// Integers near `i64::MIN`, `±2⁵³` and `i64::MAX`.
    Wide,
    Float,
    Mixed,
    Str,
    Nullable,
    Any,
}

const CLASSES: [Class; 7] = [
    Class::Int,
    Class::Wide,
    Class::Float,
    Class::Mixed,
    Class::Str,
    Class::Nullable,
    Class::Any,
];
const WIDE: [i64; 6] = [
    i64::MIN,
    -(1 << 53) - 1,
    -(1 << 53),
    1 << 53,
    (1 << 53) + 1,
    i64::MAX,
];
const FLOATS: [f64; 10] = [
    1.5,
    -2.25,
    1e3,
    0.5,
    -0.0,
    0.0,
    1e-2,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];
const STRS: [&str; 10] = [
    "x",
    "y",
    "hello world",
    "é",
    "日本",
    "a,b",
    "say \"hi\"",
    "true",
    "12",
    "",
];

fn draw(rng: &mut TestRng, class: Class) -> Value {
    match class {
        Class::Int => Value::Int(rng.uniform(41) as i64 - 20),
        Class::Wide => Value::Int(pick(rng, &WIDE).saturating_add(rng.uniform(5) as i64 - 2)),
        Class::Float => Value::Float(*pick(rng, &FLOATS)),
        Class::Mixed if one_in(rng, 2) => draw(rng, Class::Int),
        Class::Mixed => draw(rng, Class::Float),
        Class::Str => Value::str(pick(rng, &STRS)),
        Class::Nullable if one_in(rng, 4) => Value::Null,
        Class::Nullable => draw(rng, Class::Int),
        Class::Any => match rng.uniform(4) {
            0 => Value::Bool(one_in(rng, 2)),
            1 => Value::Null,
            _ => {
                let class = *pick(rng, &CLASSES[..5]);
                draw(rng, class)
            }
        },
    }
}

/// A value as a field: numbers in more than one spelling, sometimes
/// padded with blanks (a NBSP among them) or, in a `chaos` table, quoted
/// into a string.
fn render(rng: &mut TestRng, v: &Value, chaos: bool) -> String {
    let text = match v {
        Value::Null => pick(rng, &["", " ", "\t"]).to_string(),
        Value::Bool(b) => pick(rng, &[b.to_string(), b.to_string().to_uppercase()]).clone(),
        Value::Int(i) if *i >= 0 && one_in(rng, 8) => format!("+{i}"),
        Value::Int(i) if *i >= 0 && one_in(rng, 16) => format!("0{i}"),
        Value::Float(f) if f.is_nan() => pick(rng, &["NaN", "nan"]).to_string(),
        Value::Float(f) if one_in(rng, 3) => format!("{f:e}"),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => {
            // Unquoted, some strings read as another class.
            let retyped = s.is_empty() || s.as_ref() == "true" || s.parse::<f64>().is_ok();
            return match s.contains([',', '"']) || (retyped && !chaos) || one_in(rng, 2) {
                true => format!("\"{}\"", s.replace('"', "\"\"")),
                false => s.to_string(),
            };
        }
        other => other.to_string(),
    };
    match rng.uniform(16) {
        0 if chaos => format!("\"{text}\""),
        1 => format!(" {text} "),
        2 => format!("\t{text}"),
        3 => format!("{text}\u{a0}"),
        _ => text,
    }
}

/// What a source column holds.
enum Source {
    /// Attribute `k`'s lower bound, guess or upper bound (0, 1, 2).
    Attr(usize, usize),
    /// `mult_lb`, `mult_sg` or `mult_ub`.
    Mult(usize),
    /// Cells of any class, read by no attribute's rule in particular.
    Loose(Class),
}

/// An AU-CSV table: one to three attributes with or without `_lb` /
/// `_ub` siblings (names may repeat), maybe the `mult_*` triple or part of
/// it, maybe a column whose suffix has no base, in shuffled order; rows
/// obey `lb ≤ sg ≤ ub` unless the table is a `chaos` one, which also has
/// ragged rows and multiplicities that are no `u64`. Then blank lines,
/// `\r\n`, a missing final newline, stray bytes and, rarely, a field of
/// up to 1 MB.
fn au_table(rng: &mut TestRng) -> Vec<u8> {
    let chaos = one_in(rng, 3);
    let mut cols: Vec<(String, Source)> = Vec::new();
    let attrs: Vec<(&str, Class)> = (0..1 + rng.uniform(3))
        .map(|_| {
            (
                *pick(rng, &["a", "b", "c", "a", "mult"]),
                *pick(rng, &CLASSES),
            )
        })
        .collect();
    for (k, (name, _)) in attrs.iter().enumerate() {
        cols.push((name.to_string(), Source::Attr(k, 1)));
        for (corner, suffix) in [(0, "_lb"), (2, "_ub")] {
            if one_in(rng, 2) {
                cols.push((format!("{name}{suffix}"), Source::Attr(k, corner)));
            }
        }
    }
    let mults = match rng.uniform(10) {
        0..=4 => 3,
        5 => 1 + rng.uniform(2) as usize,
        _ => 0,
    };
    for (m, name) in ["mult_lb", "mult_sg", "mult_ub"]
        .iter()
        .enumerate()
        .take(mults)
    {
        cols.push((name.to_string(), Source::Mult(m)));
    }
    if one_in(rng, 8) {
        let name = pick(rng, &["z_lb", "a_lb_lb", "mult", "q"]);
        cols.push((name.to_string(), Source::Loose(*pick(rng, &CLASSES))));
    }
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.uniform(i as u64 + 1) as usize);
    }
    let eol = *pick(rng, &["\n", "\n", "\r\n"]);
    let quote_name = |rng: &mut TestRng, name: &str| match one_in(rng, 8) {
        true => format!("\"{name}\""),
        false => name.to_string(),
    };
    let header: Vec<String> = cols.iter().map(|(name, _)| quote_name(rng, name)).collect();
    let mut text = header.join(",") + eol;
    let rows = match one_in(rng, 10) {
        true => 40,
        false => rng.uniform(11),
    };
    for _ in 0..rows {
        if one_in(rng, 10) {
            text += *pick(rng, &["", " ", "\t", "\r"]);
            text += eol;
        }
        let triples: Vec<[Value; 3]> = attrs
            .iter()
            .map(|&(_, class)| {
                let mut t = [0; 3].map(|_| draw(rng, class));
                if one_in(rng, 2) {
                    t = [0; 3].map(|_| t[1].clone());
                } else if !chaos || !one_in(rng, 8) {
                    t.sort();
                }
                t
            })
            .collect();
        let mut mult = [0; 3].map(|_| rng.uniform(3) as i64);
        mult.sort();
        let mut fields: Vec<String> = cols
            .iter()
            .map(|(_, source)| match source {
                Source::Attr(k, corner) => render(rng, &triples[*k][*corner], chaos),
                Source::Mult(_) if chaos && one_in(rng, 12) => {
                    pick(rng, &["-1", "1.0", "x", "", "\"1\""]).to_string()
                }
                Source::Mult(m) => render(rng, &Value::Int(mult[*m]), chaos),
                Source::Loose(class) => {
                    let v = draw(rng, *class);
                    render(rng, &v, chaos)
                }
            })
            .collect();
        if one_in(rng, 40) {
            let len = rng.uniform(1 << 20) as usize;
            let long = match rng.uniform(3) {
                0 => format!("\"{}\"", "x,".repeat(len / 2)),
                1 => "é".repeat(len / 2),
                _ => format!("{}.5", "7".repeat(len)),
            };
            let i = rng.uniform(fields.len() as u64) as usize;
            fields[i] = long;
        }
        if chaos && one_in(rng, 25) {
            match one_in(rng, 2) {
                true => drop(fields.pop()),
                false => fields.push("1".into()),
            }
        }
        text += &fields.join(",");
        text += eol;
    }
    let mut bytes = text.into_bytes();
    if one_in(rng, 4) {
        // Sometimes the `\r` of a `\r\n` stays, with no `\n` after it.
        let cut = match bytes.ends_with(b"\r\n") && one_in(rng, 2) {
            true => 2,
            false => 1,
        };
        bytes.truncate(bytes.len() - cut);
    }
    if one_in(rng, 20) {
        let at = rng.uniform(bytes.len() as u64 + 1) as usize;
        let junk = raw_bytes(rng);
        bytes.splice(at..at, junk);
    }
    bytes
}

// ------------------------------------------------------------- properties

/// Inputs where the two readers differ on purpose: a NUL byte (the old
/// marker ate it) or an integer literal past `i64` (refused now, or a
/// `u64` multiplicity).
fn comparable(bytes: &[u8]) -> bool {
    let past_i64 = |run: &[u8]| {
        let digits = &run[run.iter().take_while(|&&b| b == b'0').count()..];
        digits.len() > 19 || (digits.len() == 19 && digits > &b"9223372036854775807"[..])
    };
    !bytes.contains(&0) && !bytes.split(|b| !b.is_ascii_digit()).any(past_i64)
}

/// Every `line N` an error names is a line of the input.
fn assert_lines_exist(e: &io::Error, bytes: &[u8]) {
    let msg = e.to_string();
    let lines = match bytes.is_empty() {
        true => 0,
        false => bytes.split(|&b| b == b'\n').count() - usize::from(bytes.ends_with(b"\n")),
    };
    for (at, _) in msg.match_indices("line ") {
        let digits: String = msg[at + 5..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let n: usize = digits.parse().unwrap_or_else(|_| panic!("{msg}"));
        assert!(
            (1..=lines).contains(&n),
            "{msg} (the input has {lines} lines)"
        );
    }
}

/// Equal values of the same class (floats bit for bit).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// Same schema, and lane for lane the same layouts, values, certainty
/// bits and multiplicities.
fn assert_same_columns(got: &AuColumns, want: &AuColumns) {
    use audb::core::Corner;
    assert_eq!(got.schema(), want.schema());
    assert_eq!(got.len(), want.len());
    for c in 0..want.arity() {
        let (g, w) = (got.col(c), want.col(c));
        assert_eq!(g.is_certain(), w.is_certain(), "column {c}");
        for corner in [Corner::Lb, Corner::Sg, Corner::Ub] {
            let (gl, wl) = (g.corner(corner), w.corner(corner));
            assert_eq!(gl.phys_type(), wl.phys_type(), "column {c} {corner:?}");
            for i in 0..want.len() {
                let (gv, wv) = (gl.value(i), wl.value(i));
                assert!(
                    same(&gv, &wv),
                    "column {c} {corner:?} row {i}: {gv:?} vs {wv:?}"
                );
            }
        }
        for i in 0..want.len() {
            assert_eq!(g.certain_at(i), w.certain_at(i), "column {c} row {i}");
        }
    }
    assert_eq!(got.mult_lb(), want.mult_lb());
    assert_eq!(got.mult_sg(), want.mult_sg());
    assert_eq!(got.mult_ub(), want.mult_ub());
}

fn request(method: &str, target: &str, body: &[u8]) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

fn call(state: &ServerState, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let (status, body) = wire::handle(
        state,
        &mut ConnState::default(),
        &request(method, target, body),
    );
    (status, body.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_loader_agrees_with_the_path_it_replaced(bytes in CsvBytes) {
        let got = read_au_csv_columns(&bytes[..]);
        if let Err(e) = &got {
            assert_lines_exist(e, &bytes);
        }
        if comparable(&bytes) {
            match (&got, oracle(&bytes)) {
                (Ok(got), Ok(want)) => assert_same_columns(got, &want),
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got.kind(), want.kind());
                    prop_assert_eq!(got.to_string(), want.to_string());
                }
                (got, want) => panic!(
                    "{:?}\nnew: {:?}\nold: {:?}",
                    String::from_utf8_lossy(&bytes),
                    got.as_ref().map(AuColumns::len),
                    want.map(|w| w.len())
                ),
            }
        }
    }

    #[test]
    fn read_csv_agrees_with_the_path_it_replaced(bytes in CsvBytes) {
        let got = audb::rel::read_csv(&bytes[..]);
        if let Err(e) = &got {
            assert_lines_exist(e, &bytes);
        }
        if !bytes.contains(&0) {
            match (got, read_csv_lines(&bytes[..])) {
                (Ok(got), Ok((want, _))) => {
                    prop_assert_eq!(&got.schema, &want.schema);
                    prop_assert_eq!(got.rows.len(), want.rows.len());
                    for (g, w) in got.rows.iter().zip(&want.rows) {
                        prop_assert!(g.tuple.0.iter().zip(&w.tuple.0).all(|(a, b)| same(a, b)));
                    }
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => panic!("new: {:?}\nold: {:?}", got.is_ok(), want.is_ok()),
            }
        }
    }

    #[test]
    fn register_and_append_answer_200_or_400(bytes in CsvBytes) {
        let state = ServerState::new(Engine::native(), SharedCatalog::new(), 1);
        let base = b"a_lb,a,a_ub,b,mult_lb,mult_sg,mult_ub\n1,2,3,x,1,1,1\n";
        prop_assert_eq!(call(&state, "POST", "/register?name=base", base).0, 200);
        let (registered, _) = call(&state, "POST", "/register?name=t", &bytes);
        prop_assert!(registered == 200 || registered == 400);
        prop_assert_eq!(registered == 200, read_au_csv_columns(&bytes[..]).is_ok());
        let (appended, _) = call(&state, "POST", "/append?name=base", &bytes);
        prop_assert!(appended == 200 || appended == 400);
        if registered == 200 {
            let (appended, _) = call(&state, "POST", "/append?name=t", &bytes);
            prop_assert!(appended == 200 || appended == 400);
        }
        prop_assert_eq!(call(&state, "GET", "/health", b"").0, 200);
    }
}

/// A multiplicity past `i64` registers, and `/query` writes it back
/// unsigned.
#[test]
fn a_multiplicity_past_i64_is_served() {
    let state = ServerState::new(Engine::native(), SharedCatalog::new(), 1);
    let csv = b"a,mult_lb,mult_sg,mult_ub\n1,1,1,18446744073709551615\n";
    assert_eq!(call(&state, "POST", "/register?name=big", csv).0, 200);
    let (status, body) = call(&state, "POST", "/query", b"SELECT * FROM big");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("18446744073709551615"), "{body}");
}

/// AU-CSV with cells of a megabyte — keys that differ only in their last
/// byte, one of them a range, one row stored twice — registered through
/// `/register` and ordered by those cells over `/query`: the reply's rows
/// are a fresh `Session`'s answer, normalized.
#[test]
fn a_served_query_ordered_by_megabyte_strings_equals_a_session() {
    let key = |last: char| format!("{}{last}", "y".repeat(1 << 20));
    let [a, b, c] = ['a', 'b', 'c'].map(key);
    let csv = format!(
        "s_lb,s,s_ub,id,mult_lb,mult_sg,mult_ub\n\
         {c},{c},{c},0,1,1,1\n{a},{b},{c},1,0,1,1\n{b},{b},{b},2,1,1,1\n\
         {a},{a},{a},3,1,1,2\n{b},{b},{b},2,1,1,1\n"
    );
    let state = ServerState::new(Engine::native(), SharedCatalog::new(), 1);
    let (status, body) = call(&state, "POST", "/register?name=words", csv.as_bytes());
    assert_eq!(status, 200, "{body}");
    let catalog = SharedCatalog::new();
    catalog.register_columns("words", read_au_csv_columns(csv.as_bytes()).unwrap());
    let session = Session::with_catalog(Engine::native(), catalog);
    for sql in [
        "SELECT * FROM words ORDER BY s AS pos",
        "SELECT * FROM words ORDER BY s, id AS pos LIMIT 2",
    ] {
        let (status, body) = call(&state, "POST", "/query", sql.as_bytes());
        assert_eq!(status, 200, "{sql}: {}", &body[..body.len().min(400)]);
        let reply = Json::parse(&body).unwrap();
        let want = session.sql(sql).unwrap().normalize().to_columns();
        let want = Json::parse(&wire::relation_body(want).to_string()).unwrap();
        for field in ["schema", "row_count", "rows", "mults"] {
            assert!(reply.get(field) == want.get(field), "{field} of {sql}");
        }
    }
}
