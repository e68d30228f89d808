//! Minimal CSV import for relations (no external dependencies).
//!
//! One tokenizer, [`Records`], serves [`read_csv`] and the AU-CSV loader
//! (`audb_workloads::csvload`): records split on `\n` (a `\r` right before
//! it dropped; blank ones skipped but counted as lines; UTF-8 checked),
//! and each [`Field`] is a slice of the input that knows whether it was
//! quoted — nothing is written into its text to say so. A quote opens only
//! at a field's start, `""` inside is one quote, and what follows the
//! closing quote is literal.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::io::{self, Read};

/// One field of a record, as it lies in the input (quotes included).
#[derive(Clone, Copy, Debug)]
pub struct Field<'a> {
    raw: &'a str,
    /// Where a quoted section that opens `raw` ends in it; 0 if unquoted.
    close: usize,
}

/// A field typed as [`read_csv`] types it, integers kept apart so that a
/// loader can store them without building a [`Value`].
#[derive(Clone, Debug)]
pub enum Cell<'a> {
    /// An unquoted integer literal within `i64`.
    Int(i64),
    /// An unquoted integer literal (`[+-]?[0-9]+`, trimmed) past `i64`.
    BigInt(&'a str),
    /// Anything else: quoted, a string; else trimmed, then NULL if empty,
    /// a float, `true`/`false` (either case) or a string.
    Other(Value),
}

impl<'a> Field<'a> {
    /// The field's text: a quoted one without its quotes, `""` read as `"`.
    pub fn text(&self) -> Cow<'a, str> {
        match self.close {
            0 => Cow::Borrowed(self.raw),
            close => {
                let after = self.raw.get(close + 1..).unwrap_or("");
                Cow::Owned(self.raw[1..close].replace("\"\"", "\"") + after)
            }
        }
    }

    /// The field typed (see [`Cell`]).
    pub fn cell(&self) -> Cell<'a> {
        if self.close > 0 {
            return Cell::Other(Value::str(self.text()));
        }
        // Plain digits (most cells; 18 of them fit an `i64`) need neither
        // trimming nor the general parser.
        let b = self.raw.as_bytes();
        if (1..=18).contains(&b.len()) && b.iter().all(u8::is_ascii_digit) {
            return Cell::Int(b.iter().fold(0, |v, d| v * 10 + i64::from(d - b'0')));
        }
        let t = self.raw.trim();
        let digits = t.strip_prefix(['+', '-']).unwrap_or(t);
        match t.parse() {
            Ok(i) => Cell::Int(i),
            Err(_) if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) => {
                Cell::BigInt(t)
            }
            Err(_) => Cell::Other(match (t, t.parse()) {
                ("", _) => Value::Null,
                (_, Ok(f)) => Value::Float(f),
                ("true" | "TRUE", _) => Value::Bool(true),
                ("false" | "FALSE", _) => Value::Bool(false),
                _ => Value::str(t),
            }),
        }
    }

    /// The field as a value; an integer past `i64` reads as a float.
    pub fn value(&self) -> Value {
        match self.cell() {
            Cell::Int(i) => Value::Int(i),
            Cell::BigInt(t) => t.parse().map_or(Value::Null, Value::Float),
            Cell::Other(v) => v,
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The records after a CSV header, in order.
pub struct Records<'a> {
    /// What is left of the input's UTF-8 prefix.
    text: &'a str,
    /// The input goes on past that prefix.
    bad_tail: bool,
    line: usize,
    arity: usize,
}

impl<'a> Records<'a> {
    /// Split `input` into its header's names and the records after it.
    pub fn new(input: &'a [u8]) -> io::Result<(Vec<String>, Records<'a>)> {
        let text = std::str::from_utf8(input)
            .or_else(|e| std::str::from_utf8(&input[..e.valid_up_to()]))
            .unwrap_or("");
        let bad_tail = text.len() < input.len();
        let mut records = Records {
            text,
            bad_tail,
            line: 0,
            arity: 0,
        };
        let header = records
            .next_line()?
            .ok_or_else(|| invalid("empty csv".into()))?;
        let mut fields = Vec::new();
        split(header, &mut fields);
        records.arity = fields.len();
        let names = fields.iter().map(|f| f.text().into_owned()).collect();
        Ok((names, records))
    }

    /// Read the next non-blank record into `fields`: its 1-based line, or
    /// `None` at the end of the input. A record with another field count
    /// than the header's is an error naming its line.
    pub fn next_into(&mut self, fields: &mut Vec<Field<'a>>) -> io::Result<Option<usize>> {
        while let Some(line) = self.next_line()? {
            if line.trim().is_empty() {
                continue;
            }
            split(line, fields);
            let (n, lineno) = (fields.len(), self.line);
            if n != self.arity {
                return Err(invalid(format!(
                    "line {lineno}: ragged row \u{2014} {n} fields (cols 1\u{2013}{n}), header has {}",
                    self.arity
                )));
            }
            return Ok(Some(lineno));
        }
        Ok(None)
    }

    /// The next line, or an error if it holds a byte that is not UTF-8.
    fn next_line(&mut self) -> io::Result<Option<&'a str>> {
        let line = match self.text.find('\n') {
            Some(n) => {
                let line = &self.text[..n];
                self.text = &self.text[n + 1..];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None if self.bad_tail => {
                return Err(invalid("stream did not contain valid UTF-8".into()))
            }
            None if self.text.is_empty() => return Ok(None),
            None => std::mem::take(&mut self.text),
        };
        self.line += 1;
        Ok(Some(line))
    }
}

/// Split one line at the commas outside a field's leading quoted section.
fn split<'a>(line: &'a str, fields: &mut Vec<Field<'a>>) {
    fields.clear();
    let b = line.as_bytes();
    let mut start = 0;
    loop {
        let mut i = start;
        if b.get(i) == Some(&b'"') {
            loop {
                i += 1;
                match (b.get(i), b.get(i + 1)) {
                    (Some(b'"'), Some(b'"')) => i += 1,
                    (Some(b'"'), _) | (None, _) => break,
                    _ => {}
                }
            }
        }
        let close = i - start;
        while i < b.len() && b[i] != b',' {
            i += 1;
        }
        fields.push(Field {
            raw: &line[start..i],
            close,
        });
        if i == b.len() {
            return;
        }
        start = i + 1;
    }
}

/// Read a relation from CSV. The first line is the header (schema); every
/// data row gets multiplicity 1. Ragged rows are rejected with an error
/// naming their line.
pub fn read_csv(mut reader: impl Read) -> io::Result<Relation> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let (header, mut records) = Records::new(&input)?;
    let mut rel = Relation::empty(Schema::new(header));
    let mut fields = Vec::new();
    while records.next_into(&mut fields)?.is_some() {
        rel.push(Tuple::new(fields.iter().map(Field::value)), 1);
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC-4180 bytes as a writer emits them — a quoted comma, an empty
    /// field read as NULL, a repeated row — read back as the relation they
    /// spell.
    #[test]
    fn roundtrip() {
        let csv = "id,name,score\n1,ada,9.5\n2,\"grace, phd\",\n2,\"grace, phd\",\n";
        let rel = Relation::from_rows(
            Schema::new(["id", "name", "score"]),
            [
                (
                    Tuple::new([Value::Int(1), Value::str("ada"), Value::Float(9.5)]),
                    1,
                ),
                (
                    Tuple::new([Value::Int(2), Value::str("grace, phd"), Value::Null]),
                    2,
                ),
            ],
        );
        let back = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(back.schema.cols(), rel.schema.cols());
        assert!(back.bag_eq(&rel), "{back}");
    }

    #[test]
    fn type_inference() {
        let csv = "a,b,c,d\n1,2.5,hello,\n-3,0,\"42\",true\n";
        let rel = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(rel.rows[0].tuple.get(0), &Value::Int(1));
        assert_eq!(rel.rows[0].tuple.get(1), &Value::Float(2.5));
        assert_eq!(rel.rows[0].tuple.get(2), &Value::str("hello"));
        assert!(rel.rows[0].tuple.get(3).is_null());
        // Quoted numerals stay strings.
        assert_eq!(rel.rows[1].tuple.get(2), &Value::str("42"));
        assert_eq!(rel.rows[1].tuple.get(3), &Value::Bool(true));
    }

    /// A quoted field holds a comma and doubled quotes, each read as one.
    #[test]
    fn quoting_with_commas_and_quotes() {
        let csv = "s\n\"he said \"\"hi, there\"\"\"\n";
        let back = read_csv(csv.as_bytes()).unwrap();
        let rel = Relation::from_rows(
            Schema::new(["s"]),
            [(Tuple::new([Value::str("he said \"hi, there\"")]), 1)],
        );
        assert!(back.bag_eq(&rel), "{back}");
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv("a,b\n1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// An integer literal past `i64` keeps reading as a float here (the
    /// AU-CSV loader refuses it instead), and a string that merely starts
    /// with one stays a string.
    #[test]
    fn integers_past_i64_read_as_floats() {
        let rel = read_csv("a,b\n99999999999999999999,99999999999999999999x\n".as_bytes()).unwrap();
        assert_eq!(rel.rows[0].tuple.get(0), &Value::Float(1e20));
        assert_eq!(
            rel.rows[0].tuple.get(1),
            &Value::str("99999999999999999999x")
        );
    }

    /// The quoted flag, not a marker in the text, makes a field a string:
    /// a leading NUL byte is data, in a cell and in a header name.
    #[test]
    fn a_leading_nul_is_data() {
        let rel = read_csv("\u{0}a,b\n\u{0}x,\"\u{0}y\"\n".as_bytes()).unwrap();
        assert_eq!(rel.schema.cols(), &["\u{0}a", "b"]);
        assert_eq!(rel.rows[0].tuple.get(0), &Value::str("\u{0}x"));
        assert_eq!(rel.rows[0].tuple.get(1), &Value::str("\u{0}y"));
    }

    /// Quote handling field by field: a quote opens only at the start,
    /// `""` is one quote, text after the closing quote is literal, an
    /// unterminated quote runs to the end of the line, and a `\r` stays
    /// unless a `\n` follows it.
    #[test]
    fn fields_split_as_rfc_4180_reads_them() {
        let csv = "a,b,c,d,e\n\"x,\"\"y\"\"\"z\",a\"b, \"q\",\"\",\"open, to the end\r";
        let rel = read_csv(csv.as_bytes()).unwrap();
        let row = &rel.rows[0].tuple;
        assert_eq!(row.get(0), &Value::str("x,\"y\"z\""));
        assert_eq!(row.get(1), &Value::str("a\"b"));
        assert_eq!(row.get(2), &Value::str("\"q\""));
        assert_eq!(row.get(3), &Value::str(""));
        assert_eq!(row.get(4), &Value::str("open, to the end\r"));
        let crlf = read_csv("a\r\n\"x\"\r\n\r\n\"y\"\r".as_bytes()).unwrap();
        assert_eq!(crlf.schema.cols(), &["a"]);
        assert_eq!(crlf.rows[0].tuple.get(0), &Value::str("x"));
        assert_eq!(crlf.rows[1].tuple.get(0), &Value::str("y\r"));
    }
}
