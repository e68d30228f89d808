//! `server::http::read_request` on generated bytes.
//!
//! Two generators. [`HttpBytes`] strings together the tokens a request is
//! made of — methods, targets, versions, header names, digits, signs,
//! `Transfer-Encoding`, line ends, bytes that are not UTF-8 — and sometimes
//! a line at or past `MAX_LINE`. On those, reading requests until the input
//! is used up never panics, every error is `InvalidData` or
//! `UnexpectedEof`, and `Ok(None)` comes only where no byte is left.
//! [`WellFormed`] writes one request from a method, a path, query pairs
//! and a body — percent-escapes, `+`, any text, bodies up to 1 MB, header
//! lines one under, at and one past `MAX_LINE` — and it reads back as
//! what was written, or, for the line past the bound only, as an
//! `InvalidData` refusal.

use audb::server::http::{read_request, Request, MAX_LINE};
use proptest::prelude::*;
use std::io::{self, ErrorKind};

// ------------------------------------------------------------ generators

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.uniform(xs.len() as u64) as usize]
}

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.uniform(n) == 0
}

/// The alphabet of a request head, valid and not.
const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b"get",
    b" ",
    b"  ",
    b"/",
    b"/query",
    b"?",
    b"&",
    b"=",
    b"%",
    b"%41",
    b"%zz",
    b"+",
    b"-",
    b"HTTP/1.1",
    b"HTTP/1.0",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b":",
    b"Content-Length:",
    b"content-length: ",
    b"Transfer-Encoding: chunked",
    b"Connection: close",
    b"Connection: keep-alive",
    b"0",
    b"1",
    b"5",
    b"42",
    b"99999999999999999999999",
    b"\t",
    b"a",
    b"\xff",
    b"\xc3",
    "é".as_bytes(),
];

/// Token strings, with whole requests and over-long lines mixed in so that
/// inputs get past the head as well as fail in it.
struct HttpBytes;

impl Strategy for HttpBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..rng.uniform(40) {
            match rng.uniform(20) {
                0 => out.extend(WellFormed.generate(rng).bytes),
                1 => out.extend(std::iter::repeat_n(
                    b'x',
                    MAX_LINE - 2 + rng.uniform(4) as usize,
                )),
                _ => out.extend_from_slice(pick::<&[u8]>(rng, TOKENS)),
            }
        }
        out
    }
}

/// Any text: ASCII that needs escaping beside ASCII that does not, and
/// characters of two, three and four bytes.
fn text(rng: &mut TestRng, max: u64) -> String {
    const CHARS: &[&str] = &[
        "a", "Z", "0", "-", "_", ".", "~", " ", "+", "%", "&", "=", "?", "/", "#", "\"", "é", "日",
        "𝄞",
    ];
    (0..rng.uniform(max + 1))
        .map(|_| *pick(rng, CHARS))
        .collect()
}

/// Percent-escape `s` for a request target: unreserved bytes as they are,
/// a space as `+` or `%20`, every other byte as `%XX` in either case.
fn escape(rng: &mut TestRng, s: &str, keep_slash: bool) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b'/' if keep_slash => out.push('/'),
            b' ' if one_in(rng, 2) => out.push('+'),
            _ if one_in(rng, 2) => out.push_str(&format!("%{b:02X}")),
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

/// One request as written, beside what it must read back as.
#[derive(Debug)]
struct Written {
    bytes: Vec<u8>,
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    /// One header line past `MAX_LINE`.
    too_long: bool,
}

struct WellFormed;

impl Strategy for WellFormed {
    type Value = Written;
    fn generate(&self, rng: &mut TestRng) -> Written {
        let method = pick(rng, &["GET", "POST", "PUT", "post"]).to_string();
        let path = format!("/{}", text(rng, 12));
        let query: Vec<(String, String)> = (0..rng.uniform(4))
            .map(|_| (text(rng, 6), text(rng, 6)))
            .filter(|(k, v)| !(k.is_empty() && v.is_empty()))
            .collect();
        let mut target = escape(rng, &path, true);
        for (i, (k, v)) in query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&escape(rng, k, false));
            target.push('=');
            target.push_str(&escape(rng, v, false));
        }
        let body: Vec<u8> = match rng.uniform(8) {
            0 => vec![b'b'; rng.uniform(1 << 20) as usize + 1],
            1 | 2 => Vec::new(),
            _ => (0..rng.uniform(200))
                .map(|_| rng.uniform(256) as u8)
                .collect(),
        };
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: x\r\n");
        let mut too_long = false;
        if one_in(rng, 4) {
            // A header line of MAX_LINE − 1, MAX_LINE or MAX_LINE + 1
            // bytes, its `\r\n` included.
            let len = MAX_LINE - 1 + rng.uniform(3) as usize;
            too_long = len > MAX_LINE;
            head.push_str(&format!(
                "X-Pad: {}\r\n",
                "p".repeat(len - "X-Pad: \r\n".len())
            ));
        }
        if !body.is_empty() || one_in(rng, 2) {
            let spelled = pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]);
            head.push_str(&format!("{spelled}: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&body);
        Written {
            bytes,
            method: method.to_ascii_uppercase(),
            path,
            query,
            body,
            too_long,
        }
    }
}

// ------------------------------------------------------------ properties

/// Every request of `input`, read until it is used up: the requests read,
/// and how reading ended — `None` at a clean end.
fn read_all(input: &[u8]) -> (Vec<Request>, Option<io::Error>) {
    let mut rest = input;
    let mut requests = Vec::new();
    loop {
        match read_request(&mut rest) {
            Ok(Some(request)) => requests.push(request),
            Ok(None) => {
                assert!(rest.is_empty(), "Ok(None) with {} bytes left", rest.len());
                return (requests, None);
            }
            Err(e) => return (requests, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_bytes_end_cleanly_or_in_a_framing_error(bytes in HttpBytes) {
        let (requests, error) = read_all(&bytes);
        if let Some(e) = error {
            prop_assert!(
                matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{:?}: {}", e.kind(), e
            );
        }
        for request in &requests {
            prop_assert!(!request.method.is_empty() && !request.path.is_empty());
        }
    }

    #[test]
    fn a_well_formed_request_reads_back_as_written(written in WellFormed) {
        let (requests, error) = read_all(&written.bytes);
        if written.too_long {
            let e = error.expect("a line past MAX_LINE is refused");
            prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
            prop_assert!(requests.is_empty());
            return;
        }
        prop_assert!(error.is_none(), "{:?}", error);
        prop_assert_eq!(requests.len(), 1);
        let got = &requests[0];
        prop_assert_eq!(&got.method, &written.method);
        prop_assert_eq!(&got.path, &written.path);
        prop_assert_eq!(&got.query, &written.query);
        prop_assert!(got.body == written.body, "body of {} bytes", written.body.len());
        prop_assert!(got.keep_alive);
    }
}

/// Two requests back to back on one input — the keep-alive case — read as
/// two, and nothing of the first body leaks into the second head.
#[test]
fn requests_back_to_back_read_apart() {
    let mut rng = TestRng::for_case("requests_back_to_back_read_apart", 0);
    for _ in 0..64 {
        let (a, b) = (WellFormed.generate(&mut rng), WellFormed.generate(&mut rng));
        if a.too_long || b.too_long {
            continue;
        }
        let (requests, error) = read_all(&[a.bytes.as_slice(), &b.bytes].concat());
        assert!(error.is_none(), "{error:?}");
        assert_eq!(requests.len(), 2);
        assert_eq!((&requests[0].path, &requests[1].path), (&a.path, &b.path));
        assert!(requests[0].body == a.body && requests[1].body == b.body);
    }
}
