//! Dependency-free JSON: the wire format of the service layer.
//!
//! Same zero-dep discipline as `audb-sql`: a small recursive-descent
//! parser and a writer, nothing else. Two properties matter for this
//! codebase and drive the design:
//!
//! * **Objects preserve insertion order** (`Obj` is a `Vec` of pairs, not
//!   a map), so encoded responses are byte-stable and diffable in golden
//!   tests.
//! * **Integers and floats stay distinct** (`Int(i64)` vs `Float(f64)`),
//!   so a round trip never turns `16000` into `16000.0`.
//!
//! Nesting is bounded ([`MAX_DEPTH`]): the parser, the writer and the drop
//! of a document all recurse over it, and a request body nested past what a
//! worker's stack holds must be refused, not crash the server.

use std::fmt::{self, Write as _};

/// The most arrays and objects a parsed document may have open at once;
/// past it, [`Json::parse`] refuses the document.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Construct with the variants or [`Json::obj`]; render
/// with [`Json::write`] or `to_string()` (compact); read with
/// [`Json::parse`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// One JSON value as text already — written verbatim, and trusted to
    /// be well-formed. A large homogeneous member (a result's rows) is
    /// encoded straight into one string instead of a node per cell;
    /// [`Json::parse`] never yields this variant.
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving their order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects (first match; `None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable member lookup on objects (first match; `None` elsewhere).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Integer view (`Int` only — floats are not silently truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Insert-or-replace a member on an object (no-op on other variants).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl Json {
    /// Append the compact encoding (no whitespace) to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

impl fmt::Display for Json {
    /// Compact encoding (no whitespace): [`Json::write`]'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Append `x` as [`Json::Float`] spells it: the shortest text that reads
/// back as `x`, always with a point or an exponent.
pub fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; null is the least-bad spelling.
        out.push_str("null");
        return;
    }
    let start = out.len();
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{x:?}");
    // Keep a decimal point so the value re-parses as Float.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Decimal digits of `i`, without the formatting machinery: a result body
/// is mostly integers.
pub fn write_int(out: &mut String, i: i64) {
    // ASCII by construction.
    out.push_str(std::str::from_utf8(int_text(i, &mut [0; 21])).unwrap_or_default());
}

/// The decimal digits of `i` (ASCII), two per division, at the end of
/// `text`: 19 digits of `i64::MAX`, one more for `i64::MIN`, a sign.
pub fn int_text(i: i64, text: &mut [u8; 21]) -> &[u8] {
    decimal(i.unsigned_abs(), i < 0, text)
}

/// [`int_text`] of an unsigned number: the 20 digits of `u64::MAX` fit.
pub fn uint_text(u: u64, text: &mut [u8; 21]) -> &[u8] {
    decimal(u, false, text)
}

/// The digits of `rest`, signed by `negative`, at the end of `text`.
fn decimal(mut rest: u64, negative: bool, text: &mut [u8; 21]) -> &[u8] {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let mut at = text.len();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        text[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        text[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        text[at] = b'0' + rest as u8;
    }
    if negative {
        at -= 1;
        text[at] = b'-';
    }
    &text[at..]
}

/// Append `s` as a JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// `parse` one array or object further in — refused at its bracket
    /// where [`MAX_DEPTH`] are open already.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect_byte(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            self.expect_byte(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // codebase's artifacts; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or backslash,
                    // checking only the run: both are ASCII, so it ends on
                    // a char boundary (the input is a `&str`).
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            // Integers too large for i64 degrade to Float rather than fail.
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            // `1e999` would parse as infinity and be written as `null`.
            Ok(_) => Err(JsonError {
                message: "number out of range".to_string(),
                offset: start,
            }),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values_and_preserves_member_order() {
        let doc = Json::obj([
            ("z", Json::Int(1)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Float(1.5)]),
            ),
            ("s", Json::str("he said \"hi\"\n")),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"z":1,"a":[null,true,1.5],"s":"he said \"hi\"\n"}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        assert_eq!(Json::parse("16000").unwrap(), Json::Int(16000));
        assert_eq!(Json::parse("16000.0").unwrap(), Json::Float(16000.0));
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Int(3).to_string(), "3");
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
    }

    /// The writer's own integer formatting at the edges, and a `Raw`
    /// member: written as it is, read back as what it spells.
    #[test]
    fn integers_and_raw_text_are_written_verbatim() {
        for i in [0, 7, -7, 10, -10, 1_000_000, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).to_string(), format!("{i}"));
        }
        for u in [0, 9, i64::MAX as u64 + 1, u64::MAX] {
            assert_eq!(uint_text(u, &mut [0; 21]), format!("{u}").as_bytes());
        }
        let doc = Json::obj([
            ("n", Json::Int(2)),
            ("rows", Json::Raw("[[1,2.5],[\"x\",null]]".into())),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"n":2,"rows":[[1,2.5],["x",null]]}"#);
        let rows = Json::parse(&text).unwrap().get("rows").cloned();
        let want = Json::parse(r#"[[1,2.5],["x",null]]"#).unwrap();
        assert_eq!(rows, Some(want));
        let mut out = String::from(">");
        doc.write(&mut out);
        assert_eq!(out, format!(">{text}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"open", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// A document nested [`MAX_DEPTH`] deep parses; one level more is
    /// refused at the bracket that opens it.
    #[test]
    fn nesting_past_the_bound_is_refused_at_its_bracket() {
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        let e = Json::parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).unwrap_err();
        assert_eq!(e.offset, "{\"a\":".len() + MAX_DEPTH - 1);
    }

    #[test]
    fn member_access_helpers() {
        let mut doc = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}, "n": 4}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_i64(), Some(4));
        let Some(Json::Arr(arr)) = doc.get("a").unwrap().get("b") else {
            panic!("a.b is an array");
        };
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[1], Json::Float(2.5));
        doc.set("n", Json::Int(9));
        doc.set("new", Json::Bool(false));
        assert_eq!(doc.get("n").unwrap().as_i64(), Some(9));
        assert_eq!(doc.get("new"), Some(&Json::Bool(false)));
    }
}
