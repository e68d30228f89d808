//! End-to-end service test: every statement in `workloads/demo.sql` goes
//! through a real localhost `audb-server` as `POST /query` and the wire
//! responses are diffed against the same semantics `demo.golden` pins:
//!
//! * each statement's canonical form must appear as an echo line in
//!   `workloads/demo.golden` (so this test and the CLI golden diff are
//!   provably exercising the same script),
//! * successful statements must return exactly the rows a local
//!   [`Session`] produces (the oracle the golden file was generated
//!   from), with the golden file's `[N rows]` count,
//! * the script's deliberate binding error must come back as a
//!   structured HTTP error with the same message the golden file records.

use audb::engine::{Engine, Session};
use audb::server::wire;
use audb::server::{serve, Json, ServerConfig, ServerState};
use audb::workloads::csvload;
use audb::SharedCatalog;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn demo_catalog() -> SharedCatalog {
    let catalog = SharedCatalog::new();
    catalog.register(
        "products",
        csvload::load_au_csv("workloads/products.csv").unwrap(),
    );
    catalog.register(
        "readings",
        csvload::load_au_csv("workloads/readings.csv").unwrap(),
    );
    catalog
}

/// The demo script's statements: comment lines stripped, split on `;`.
fn demo_statements() -> Vec<String> {
    let script = std::fs::read_to_string("workloads/demo.sql").unwrap();
    let code: String = script
        .lines()
        .filter(|line| !line.trim_start().starts_with("--"))
        .collect::<Vec<_>>()
        .join("\n");
    code.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Minimal HTTP client: one POST per connection, parse status and body.
fn http_post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn demo_script_over_localhost_matches_golden_semantics() {
    let catalog = demo_catalog();
    let oracle = Session::with_catalog(Engine::native(), catalog.clone());
    let state = ServerState::new(Engine::native(), catalog, 2);
    let handle = serve(
        state,
        ServerConfig {
            port: 0,
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let golden = std::fs::read_to_string("workloads/demo.golden").unwrap();
    let statements = demo_statements();
    assert!(statements.len() >= 6, "demo script shrank unexpectedly");

    for sql in &statements {
        // The canonical (whitespace-flattened) statement is the golden
        // file's echo line — proof both harnesses run the same script.
        let flat = sql.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(
            golden.contains(&format!("-- {flat}")),
            "statement missing from demo.golden: {flat}"
        );

        let (status, body) = http_post(&addr, "/query", sql);
        let reply = Json::parse(&body).unwrap();
        match oracle.sql(sql) {
            Ok(expected) => {
                assert_eq!(status, 200, "unexpected status for {flat}: {body}");
                // The oracle result, pushed through the same wire encoder,
                // must match field-for-field (rows are normalized on both
                // sides, so bag-equal means byte-equal).
                let expected =
                    Json::parse(&wire::relation_body(expected.to_columns()).to_string()).unwrap();
                for field in ["schema", "row_count", "rows", "mults"] {
                    assert_eq!(
                        reply.get(field),
                        expected.get(field),
                        "field {field} diverged for {flat}"
                    );
                }
                // And the row count the golden file pins for this block.
                let block = golden.split(&format!("-- {flat}\n")).nth(1).unwrap();
                let header = block.lines().next().unwrap();
                let count: i64 = header
                    .rsplit_once('[')
                    .and_then(|(_, tail)| tail.strip_suffix("rows]"))
                    .expect("golden header has [N rows]")
                    .trim()
                    .parse()
                    .unwrap();
                assert_eq!(reply.get("row_count"), Some(&Json::Int(count)));
            }
            Err(e) => {
                // The script's deliberate error: structured on the wire,
                // same message the golden file records.
                assert_eq!(status, 400, "expected client error for {flat}: {body}");
                let error = reply.get("error").expect("error member");
                assert_eq!(
                    error.get("kind").and_then(Json::as_str),
                    Some(e.kind()),
                    "wrong kind for {flat}"
                );
                let message = error.get("message").and_then(Json::as_str).unwrap();
                assert!(
                    golden.contains(&format!("error: {message}")),
                    "error message not pinned by demo.golden: {message}"
                );
            }
        }
    }

    // The service survived the whole script; the counters saw it all.
    let (status, body) = http_post(&addr, "/run_all", &statements[0]);
    assert_eq!(status, 200, "run_all failed: {body}");
    handle.shutdown();
}

/// The result encoder against the parser: what `wire::relation_body` writes
/// straight into text reads back as the cells it was given.
mod encoding {
    use audb::core::{AuRelation, AuRow, AuTuple, Mult3, RangeValue};
    use audb::rel::{Schema, Value};
    use audb::server::{wire, Json};
    use proptest::prelude::*;

    /// Every kind of cell a result can hold. Integral floats from 1e15 up
    /// are left out: they print without a decimal point (as they always
    /// have) and so re-parse as `Int`.
    fn value() -> impl Strategy<Value = Value> {
        const FLOATS: [f64; 13] = [
            0.0,
            -0.0,
            0.5,
            -2.25,
            7.0,
            -123456789.0,
            999_999_999_999_999.0,
            1e15 + 0.5,
            1.0e-7,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const STRINGS: [&str; 9] = [
            "",
            "plain",
            "he said \"hi\"",
            "back\\slash",
            "line\nbreak\r\ttab",
            "\u{1}\u{1f}control",
            "caf\u{e9} \u{1F600}",
            "[1,2]",
            "null",
        ];
        prop_oneof![
            Just(Value::Null),
            proptest::bool::ANY.prop_map(Value::Bool),
            prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), -1000i64..1000]
                .prop_map(Value::Int),
            (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
            (0..STRINGS.len()).prop_map(|i| Value::str(STRINGS[i])),
        ]
    }

    /// The node-per-cell tree the encoder used to build, as `Json::parse`
    /// reads it back: JSON has no NaN or infinity, so those come back
    /// `null`.
    fn tree(v: &Value) -> Json {
        match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Int(*i),
            Value::Float(f) if f.is_finite() => Json::Float(*f),
            Value::Float(_) => Json::Null,
            Value::Str(s) => Json::str(s.as_ref()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// encode → `Json::parse` → the same cells, the same annotations,
        /// `row_count` ahead of `rows`.
        #[test]
        fn result_bodies_round_trip_through_the_parser(
            rows in proptest::collection::vec(
                ((value(), value()), (0u64..3, 0u64..3, 0u64..3)),
                0..6,
            ),
        ) {
            let rel = AuRelation::from_rows(
                Schema::new(["a", "b"]),
                rows.into_iter().map(|((a, b), (k, dk, dk2))| {
                    let tuple = AuTuple::new([RangeValue::certain(a), RangeValue::certain(b)]);
                    (tuple, Mult3::new(k, k + dk, k + dk + dk2))
                }),
            );
            let text = wire::relation_body(rel.to_columns()).to_string();
            let parsed = Json::parse(&text).expect("a result body is JSON");

            let rel = rel.normalize();
            let cells = |row: &AuRow| {
                Json::Arr(row.tuple.0.iter().map(|v| {
                    Json::Arr(vec![tree(&v.lb), tree(&v.sg), tree(&v.ub)])
                }).collect())
            };
            let mult = |row: &AuRow| {
                Json::Arr([row.mult.lb, row.mult.sg, row.mult.ub].map(|k| Json::Int(k as i64)).to_vec())
            };
            let want = Json::obj([
                ("schema", Json::Arr(vec![Json::str("a"), Json::str("b")])),
                ("row_count", Json::Int(rel.len() as i64)),
                ("rows", Json::Arr(rel.rows().iter().map(cells).collect())),
                ("mults", Json::Arr(rel.rows().iter().map(mult).collect())),
            ]);
            prop_assert_eq!(&parsed, &want, "{}", text);
            prop_assert!(text.find("\"row_count\"") < text.find("\"rows\""));
        }
    }
}
