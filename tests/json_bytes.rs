//! `server::json::Json::parse` on generated text.
//!
//! [`JsonText`] strings together the tokens a document is made of —
//! brackets, separators, literals and their misspellings, strings with
//! escapes good and bad, numbers with up to 25 integer digits and
//! exponents of up to three digits — and sometimes a run of brackets at or
//! past [`MAX_DEPTH`]. On those, `Json::parse` never panics, every error's
//! offset lies inside the input (or at its end), and every document it
//! accepts is written back as text that parses to an equal `Json`. Two
//! fixed cases pin the literals that once broke that: a number past the
//! largest finite `f64`, and an integral float from `1e15` up.

use audb::server::json::{Json, MAX_DEPTH};
use proptest::prelude::*;

// ------------------------------------------------------------ generators

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.uniform(xs.len() as u64) as usize]
}

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.uniform(n) == 0
}

/// 1 to `max` decimal digits.
fn digits(rng: &mut TestRng, max: u64, out: &mut String) {
    for _ in 0..=rng.uniform(max) {
        out.push(char::from(b'0' + rng.uniform(10) as u8));
    }
}

/// A number: a sign, 1–25 integer digits, a fraction, and an exponent of
/// 1–3 digits — each part sometimes left out or left empty.
fn number(rng: &mut TestRng) -> String {
    let mut out = String::new();
    if one_in(rng, 3) {
        out.push('-');
    }
    digits(rng, 25, &mut out);
    if one_in(rng, 3) {
        out.push('.');
        if !one_in(rng, 8) {
            digits(rng, 5, &mut out);
        }
    }
    if one_in(rng, 2) {
        out.push_str(pick::<&str>(rng, &["e", "E", "e+", "e-", "E+", "E-"]));
        if !one_in(rng, 8) {
            digits(rng, 3, &mut out);
        }
    }
    out
}

/// The alphabet of a document, valid and not.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", " ", "\n", "\t", "\"", "\"k\"", "\"\"", "\"a b\"", "\\", "\\\"",
    "\\\\", "\\n", "\\/", "\\b", "\\u00e9", "\\u0000", "\\ud83d", "\\u12", "\\uzzzz", "\\x",
    "true", "false", "null", "nul", "tru", "-", "+", ".", "e", "E", "0", "é", "日", "𝄞", "\u{1}",
    "\u{7f}",
];

/// Brackets `[` or `{"k":` nested one short of, at or one past
/// `MAX_DEPTH`, closed or not.
fn nest(rng: &mut TestRng, out: &mut String) {
    let depth = MAX_DEPTH - 1 + rng.uniform(3) as usize;
    let objects = one_in(rng, 2);
    for _ in 0..depth {
        out.push_str(if objects { "{\"k\":" } else { "[" });
    }
    out.push_str(&number(rng));
    if !one_in(rng, 4) {
        for _ in 0..depth {
            out.push(if objects { '}' } else { ']' });
        }
    }
}

/// Token strings, with numbers, short well-formed documents and runs of
/// brackets around `MAX_DEPTH` mixed in.
struct JsonText;

impl Strategy for JsonText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        // Start like a document more often than not, so that parsing gets
        // past the first byte.
        match rng.uniform(4) {
            0 => out.push('['),
            1 => out.push('{'),
            _ => {}
        }
        for _ in 0..rng.uniform(30) {
            match rng.uniform(16) {
                0..=3 => out.push_str(&number(rng)),
                4 => nest(rng, &mut out),
                5 => out.push_str(&format!("[{},\"s\\t\",null]", number(rng))),
                _ => out.push_str(pick::<&str>(rng, TOKENS)),
            }
        }
        out
    }
}

/// A whole document: a number, an array of numbers or an object of them,
/// so that most inputs of this generator are accepted.
struct Numbers;

impl Strategy for Numbers {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let items: Vec<String> = (0..=rng.uniform(4)).map(|_| number(rng)).collect();
        match rng.uniform(3) {
            0 => items[0].clone(),
            1 => format!("[{}]", items.join(",")),
            _ => {
                let pairs: Vec<String> = items.iter().map(|n| format!("\"n\": {n}")).collect();
                format!("{{{}}}", pairs.join(", "))
            }
        }
    }
}

// ------------------------------------------------------------ properties

/// Parse `text`: an error points inside it (or at its end), and an
/// accepted document is written as text that parses back to itself.
fn check(text: &str) {
    match Json::parse(text) {
        Err(e) => assert!(
            e.offset <= text.len(),
            "offset {} past {} bytes: {}",
            e.offset,
            text.len(),
            e
        ),
        Ok(doc) => {
            let written = doc.to_string();
            let again = Json::parse(&written);
            assert!(
                again.as_ref() == Ok(&doc),
                "{text:?} read as {doc:?}, written {written:?}, read back as {again:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_text_is_refused_in_bounds_or_round_trips(text in JsonText) {
        check(&text);
    }

    #[test]
    fn a_number_is_refused_in_bounds_or_round_trips(text in Numbers) {
        check(&text);
    }
}

/// `MAX_DEPTH` brackets read and round-trip; one more is refused at the
/// bracket past the bound.
#[test]
fn nesting_at_the_bound_reads_and_past_it_is_refused() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let at = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
        check(&at);
        assert!(Json::parse(&at).is_ok());
        let past = format!(
            "{}1{}",
            open.repeat(MAX_DEPTH + 1),
            close.repeat(MAX_DEPTH + 1)
        );
        let e = Json::parse(&past).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH * open.len(), "{e}");
    }
}

/// A literal past the largest finite `f64` is refused where it
/// starts: it would read as infinity, be written as `null`, and come
/// back as `Null`.
#[test]
fn a_number_past_f64_is_refused_at_its_offset() {
    let digits = "9".repeat(400);
    for (text, offset) in [
        ("1e999", 0),
        ("-1e999", 0),
        ("[1, -1E+400]", 4),
        (digits.as_str(), 0),
    ] {
        let e = Json::parse(text).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.offset),
            ("number out of range", offset),
            "{text}"
        );
    }
    // The largest finite double and a tiny one still read.
    assert_eq!(
        Json::parse("1.7976931348623157e308").unwrap(),
        Json::Float(f64::MAX)
    );
    assert_eq!(Json::parse("1e-999").unwrap(), Json::Float(0.0));
}

/// An integral float reads back as a float at every magnitude, not as
/// an integer from `1e15` up.
#[test]
fn integral_floats_keep_their_kind_at_every_magnitude() {
    for x in [
        0.0,
        -0.0,
        3.0,
        1e15,
        -1e15,
        1.5e18,
        1.2345678901234568e16,
        1e300,
        f64::MAX,
        0.1,
        1e-7,
        f64::MIN_POSITIVE,
    ] {
        let text = Json::Float(x).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(x), "{x} as {text}");
    }
    assert_eq!(Json::Float(1e15).to_string(), "1000000000000000.0");
}
