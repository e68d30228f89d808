//! Wire-layer golden tests: the JSON response shapes are a compatibility
//! surface, pinned here byte-for-byte. `wire::handle` is a pure function
//! of `(state, request)`, so the whole surface tests without sockets;
//! only `elapsed_us` is nondeterministic and gets zeroed before the diff.

use audb_engine::{Engine, SharedCatalog};
use audb_server::http::Request;
use audb_server::wire;
use audb_server::{ConnState, Json, ServerState};
use audb_workloads::csvload;

fn state() -> ServerState {
    let catalog = SharedCatalog::new();
    catalog.register(
        "products",
        csvload::load_au_csv("../../workloads/products.csv").unwrap(),
    );
    catalog.register(
        "readings",
        csvload::load_au_csv("../../workloads/readings.csv").unwrap(),
    );
    ServerState::new(Engine::native(), catalog, 1)
}

fn post(path: &str, body: &str) -> Request {
    request("POST", path, body)
}

fn request(method: &str, path: &str, body: &str) -> Request {
    let (path, query_str) = path.split_once('?').unwrap_or((path, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k.to_string(), v.to_string())
            })
            .collect(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

/// Route a request and return `(status, body)` with volatile members
/// (elapsed timings) zeroed so the encoding is deterministic.
fn roundtrip(state: &ServerState, conn: &mut ConnState, req: &Request) -> (u16, String) {
    let (status, mut body) = wire::handle(state, conn, req);
    scrub(&mut body);
    (status, body.to_string())
}

fn scrub(json: &mut Json) {
    if json.get("elapsed_us").is_some() {
        json.set("elapsed_us", Json::Int(0));
    }
    if let Some(Json::Arr(backends)) = json.get_mut("backends") {
        for backend in backends {
            backend.set("elapsed_us", Json::Int(0));
        }
    }
}

#[test]
fn query_result_shape_is_stable() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post(
            "/query",
            "SELECT * FROM products ORDER BY price AS rank LIMIT 2",
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(body, "{\"schema\":[\"sku\",\"price\",\"rank\"],\"row_count\":4,\"rows\":[[[1,1,1],[9,10,12],[1,1,2]],[[2,2,2],[8,11,11],[1,2,2]],[[4,4,4],[7,7,7],[0,0,0]],[[5,5,5],[10,13,14],[1,2,2]]],\"mults\":[[0,1,1],[0,0,1],[1,1,1],[0,0,1]],\"cache\":{\"hit\":false,\"hits\":0,\"misses\":1},\"elapsed_us\":0}");
}

#[test]
fn repeated_query_reports_a_cache_hit() {
    let state = state();
    let mut conn = ConnState::default();
    let sql = "SELECT sku FROM products ORDER BY sku";
    let (_, first) = roundtrip(&state, &mut conn, &post("/query", sql));
    // Same statement, different whitespace: still the same cached plan.
    let (_, second) = roundtrip(
        &state,
        &mut conn,
        &post("/query", "SELECT  sku\nFROM products ORDER BY sku;"),
    );
    let first = Json::parse(&first).unwrap();
    let second = Json::parse(&second).unwrap();
    assert_eq!(
        first.get("cache").and_then(|c| c.get("hit")),
        Some(&Json::Bool(false))
    );
    assert_eq!(
        second.get("cache").and_then(|c| c.get("hit")),
        Some(&Json::Bool(true))
    );
    assert_eq!(first.get("rows"), second.get("rows"));
}

/// Whitespace inside a quoted literal is data: the second statement is
/// not the first reformatted, and gets its own plan and its own rows.
#[test]
fn literals_differing_in_inner_whitespace_are_different_statements() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, _) = roundtrip(
        &state,
        &mut conn,
        &post("/register?name=labels", "id,name\n1,a  b\n2,a b\n"),
    );
    assert_eq!(status, 200);
    let (_, two_spaces) = roundtrip(
        &state,
        &mut conn,
        &post("/query", "SELECT id FROM labels WHERE name = 'a  b'"),
    );
    assert_eq!(two_spaces, "{\"schema\":[\"id\"],\"row_count\":1,\"rows\":[[[1,1,1]]],\"mults\":[[1,1,1]],\"cache\":{\"hit\":false,\"hits\":0,\"misses\":1},\"elapsed_us\":0}");
    let (_, one_space) = roundtrip(
        &state,
        &mut conn,
        &post("/query", "SELECT id FROM labels WHERE name = 'a b'"),
    );
    assert_eq!(one_space, "{\"schema\":[\"id\"],\"row_count\":1,\"rows\":[[[2,2,2]]],\"mults\":[[1,1,1]],\"cache\":{\"hit\":false,\"hits\":0,\"misses\":2},\"elapsed_us\":0}");
}

#[test]
fn parse_error_shape_carries_position() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(&state, &mut conn, &post("/query", "SELECT * FORM products"));
    assert_eq!(status, 400);
    assert_eq!(body, "{\"error\":{\"kind\":\"sql\",\"message\":\"SQL error at line 1, column 10: expected FROM, found identifier \\\"FORM\\\"\",\"line\":1,\"col\":10}}");
}

#[test]
fn unknown_table_is_404() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(&state, &mut conn, &post("/query", "SELECT * FROM missing"));
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":{\"kind\":\"unknown_table\",\"message\":\"unknown table \\\"missing\\\"; registered: products, readings\"}}");
}

#[test]
fn unknown_column_is_400_with_kind() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post("/query", "SELECT nope FROM products"),
    );
    assert_eq!(status, 400);
    assert_eq!(body, "{\"error\":{\"kind\":\"unknown_column\",\"message\":\"invalid plan: unknown column \\\"nope\\\" in schema (sku, price)\"}}");
}

#[test]
fn prepare_then_execute_roundtrips() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post(
            "/prepare",
            "SELECT sku, price FROM products WHERE price < RANGE(9, 9, 16) ORDER BY price",
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(body, "{\"id\":0,\"cache\":{\"hit\":false,\"hits\":0,\"misses\":1},\"sql\":\"SELECT sku, price FROM products WHERE price < RANGE(9, 9, 16) ORDER BY price\"}");

    let (status, body) = roundtrip(&state, &mut conn, &post("/execute?id=0", ""));
    assert_eq!(status, 200);
    assert_eq!(body, "{\"schema\":[\"sku\",\"price\",\"pos\"],\"row_count\":5,\"rows\":[[[1,1,1],[9,10,12],[1,1,3]],[[2,2,2],[8,11,11],[1,1,3]],[[3,3,3],[15,15,15],[1,1,4]],[[4,4,4],[7,7,7],[0,0,0]],[[5,5,5],[10,13,14],[1,1,3]]],\"mults\":[[0,0,1],[0,0,1],[0,0,1],[1,1,1],[0,0,1]],\"elapsed_us\":0}");

    // Statement ids are per-connection: a fresh connection sees nothing.
    let mut other = ConnState::default();
    let (status, body) = roundtrip(&state, &mut other, &post("/execute?id=0", ""));
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":{\"kind\":\"unknown_statement\",\"message\":\"no prepared statement 0 on this connection\"}}");
}

#[test]
fn run_all_reports_every_backend() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post("/run_all", "SELECT sku FROM products ORDER BY sku LIMIT 2"),
    );
    assert_eq!(status, 200);
    // Each backend reports the one mode it runs plans in.
    assert_eq!(body, "{\"schema\":[\"sku\",\"pos\"],\"row_count\":2,\"rows\":[[[1,1,1],[0,0,0]],[[2,2,2],[1,1,1]]],\"mults\":[[1,1,1],[1,1,1]],\"backends\":[{\"backend\":\"reference\",\"mode\":\"materialized\",\"elapsed_us\":0,\"rows\":2},{\"backend\":\"native\",\"mode\":\"pipelined\",\"elapsed_us\":0,\"rows\":2},{\"backend\":\"rewrite\",\"mode\":\"materialized\",\"elapsed_us\":0,\"rows\":2}],\"elapsed_us\":0}");
}

#[test]
fn append_response_shape_is_stable() {
    let state = state();
    let mut conn = ConnState::default();
    // Same AU-CSV wire format as /register; the appended rows land after
    // the existing five, and the copy-on-write publish bumps the version.
    let batch = "sku,price_lb,price,price_ub,mult_lb,mult_sg,mult_ub\n\
                 6,20,21,22,1,1,1\n\
                 7,18,19,25,0,1,1\n";
    let (status, body) = roundtrip(&state, &mut conn, &post("/append?name=products", batch));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"appended\":2,\"table\":\"products\",\"rows\":7,\"catalog_version\":3}"
    );

    // Queries prepared after the publish see the grown table.
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post(
            "/query",
            "SELECT sku FROM products WHERE sku > 5 ORDER BY sku",
        ),
    );
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(parsed.get("row_count"), Some(&Json::Int(2)));

    // A batch of no rows (a header alone) is validated and publishes
    // nothing: same rows, same version.
    let header = "sku,price_lb,price,price_ub,mult_lb,mult_sg,mult_ub\n";
    let (status, body) = roundtrip(&state, &mut conn, &post("/append?name=products", header));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"appended\":0,\"table\":\"products\",\"rows\":7,\"catalog_version\":3}"
    );
}

#[test]
fn append_errors_are_structured() {
    let state = state();
    let mut conn = ConnState::default();

    // Rows whose schema does not match the table: 400, nothing published.
    let bad = "sku,price_lb,price,price_ub,color,mult_lb,mult_sg,mult_ub\n\
               6,20,21,22,9,1,1,1\n";
    let (status, body) = roundtrip(&state, &mut conn, &post("/append?name=products", bad));
    assert_eq!(status, 400);
    assert_eq!(body, "{\"error\":{\"kind\":\"schema_mismatch\",\"message\":\"appended rows have schema (sku, price, color), but table \\\"products\\\" has schema (sku, price)\"}}");

    // Unknown table: 404, same kind as the query path.
    let ok = "sku,price_lb,price,price_ub,mult_lb,mult_sg,mult_ub\n6,20,21,22,1,1,1\n";
    let (status, body) = roundtrip(&state, &mut conn, &post("/append?name=missing", ok));
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":{\"kind\":\"unknown_table\",\"message\":\"unknown table \\\"missing\\\"; registered: products, readings\"}}");

    // Missing ?name and an unparsable body are both client errors.
    let (status, _) = roundtrip(&state, &mut conn, &post("/append", ok));
    assert_eq!(status, 400);
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post("/append?name=products", "not,a\nvalid"),
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\":\"bad_csv\""), "{body}");

    // None of the failures bumped the catalog version (still 2 registers).
    let (_, stats) = roundtrip(&state, &mut conn, &request("GET", "/stats", ""));
    let parsed = Json::parse(&stats).unwrap();
    assert_eq!(parsed.get("catalog_version"), Some(&Json::Int(2)));
}

#[test]
fn unknown_route_and_bad_method_are_structured() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(&state, &mut conn, &post("/nope", ""));
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":{\"kind\":\"unknown_route\",\"message\":\"no endpoint \\\"/nope\\\"; see /health, /stats, /query, /prepare, /execute, /explain, /run_all, /register, /append\"}}");

    let (status, body) = roundtrip(&state, &mut conn, &request("DELETE", "/query", ""));
    assert_eq!(status, 405);
    assert_eq!(
        body,
        "{\"error\":{\"kind\":\"method_not_allowed\",\"message\":\"method DELETE not allowed\"}}"
    );
}

/// A stored row that may exist five billion times makes an unlimited
/// ranking, or any window, emit one row per possible duplicate: the engine
/// refuses — nothing is allocated, the server keeps answering — where the
/// `LIMIT 3` form, bounded by its band, returns its rows.
#[test]
fn a_result_past_the_row_index_is_a_400_and_the_server_lives() {
    let state = state();
    let mut conn = ConnState::default();
    let csv = "a,mult_lb,mult_sg,mult_ub\n7,1,1,5000000000\n";
    let (status, _) = roundtrip(&state, &mut conn, &post("/register?name=dup", csv));
    assert_eq!(status, 200);
    let too_large = "{\"error\":{\"kind\":\"result_too_large\",\"message\":\"execution failed: an ORDER BY or window over this input would emit 5000000000 rows (one per possible duplicate); at most 4294967295 are supported\"}}";
    for sql in [
        "SELECT * FROM dup ORDER BY a AS pos",
        "SELECT *, COUNT(*) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS c FROM dup",
    ] {
        let (status, body) = roundtrip(&state, &mut conn, &post("/query", sql));
        assert_eq!((status, body.as_str()), (400, too_large), "{sql}");
        let (status, body) = roundtrip(&state, &mut conn, &request("GET", "/health", ""));
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    }
    let (status, body) = roundtrip(
        &state,
        &mut conn,
        &post("/query", "SELECT * FROM dup ORDER BY a AS pos LIMIT 3"),
    );
    assert_eq!(status, 200);
    assert_eq!(body, "{\"schema\":[\"a\",\"pos\"],\"row_count\":3,\"rows\":[[[7,7,7],[0,0,0]],[[7,7,7],[1,1,1]],[[7,7,7],[2,2,2]]],\"mults\":[[1,1,1],[0,0,1],[0,0,1]],\"cache\":{\"hit\":false,\"hits\":0,\"misses\":3},\"elapsed_us\":0}");
}

/// Three identical rows of `k↑ = 2⁶³ − 1` add up past `u64` when the
/// reply normalizes them, or `/run_all` compares its backends: refused
/// with a kind of its own — neither a wrapped `k↑` (below the true sum,
/// which broke the bound) nor a panic — and the server answers after; two
/// of them merge exactly.
#[test]
fn merged_multiplicities_past_u64_are_a_400_and_the_server_lives() {
    let state = state();
    let mut conn = ConnState::default();
    let row = "1,1,1,9223372036854775807\n";
    let csv = format!("a,mult_lb,mult_sg,mult_ub\n{}", row.repeat(3));
    let (status, _) = roundtrip(&state, &mut conn, &post("/register?name=big", &csv));
    assert_eq!(status, 200);
    for path in ["/query", "/run_all"] {
        let (status, body) = roundtrip(&state, &mut conn, &post(path, "SELECT * FROM big"));
        assert_eq!(
            (status, body.as_str()),
            (400, "{\"error\":{\"kind\":\"multiplicity_overflow\",\"message\":\"execution failed: identical rows add up to a multiplicity past 18446744073709551615\"}}"),
            "{path}"
        );
        let (status, body) = roundtrip(&state, &mut conn, &request("GET", "/health", ""));
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    }
    let two = format!("a,mult_lb,mult_sg,mult_ub\n{}", row.repeat(2));
    roundtrip(&state, &mut conn, &post("/register?name=pair", &two));
    let (status, body) = roundtrip(&state, &mut conn, &post("/query", "SELECT * FROM pair"));
    assert_eq!(status, 200);
    assert!(
        body.contains("\"mults\":[[2,2,18446744073709551614]]"),
        "{body}"
    );
}

/// Every nesting shape that once overflowed a worker's stack and aborted
/// the server — parentheses, a `+` chain, an `OR` chain, `NOT`s, unary
/// minuses, subqueries, and arrays in an `/execute` body: as deep as its
/// parser allows it is answered, far past that it is a 400 whose position
/// lies inside the text, and the server answers after. Run on a thread of
/// the default stack size, as a worker is.
#[test]
fn nesting_at_the_bound_is_answered_and_far_past_it_refused() {
    std::thread::spawn(|| {
        let state = state();
        let mut conn = ConnState::default();
        let health = |conn: &mut ConnState| roundtrip(&state, conn, &request("GET", "/health", ""));
        let max = audb_sql::MAX_DEPTH;
        let nest = |open: &str, n: usize, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(n), close.repeat(n))
        };
        let filter = |predicate: String| format!("SELECT * FROM readings WHERE {predicate}");
        let shapes: [(&str, &dyn Fn(usize) -> String, usize); 6] = [
            (
                "parentheses",
                &|n| filter(nest("(", n, "t", ")") + " < 2"),
                max,
            ),
            (
                "a + chain",
                &|n| filter("t + ".repeat(n) + "t < 2"),
                max - 2,
            ),
            (
                "an OR chain",
                &|n| filter("t < 2 OR ".repeat(n) + "t < 2"),
                max - 2,
            ),
            ("NOTs", &|n| filter("NOT ".repeat(n) + "t < 2"), max - 2),
            (
                "unary minuses",
                &|n| filter(format!("t < {}t", "- ".repeat(n))),
                max - 2,
            ),
            (
                "subqueries",
                &|n| {
                    format!(
                        "SELECT * FROM {}",
                        nest("(SELECT * FROM ", n, "readings", ")")
                    )
                },
                max,
            ),
        ];
        for (shape, sql, at_bound) in shapes {
            let (status, body) = roundtrip(&state, &mut conn, &post("/query", &sql(at_bound)));
            assert_eq!(status, 200, "{shape} at the bound: {body}");
            for n in [at_bound + 1, 100_000] {
                let sql = sql(n);
                let e = audb_sql::parse(&sql).unwrap_err();
                assert_eq!(e.kind, audb_sql::SqlErrorKind::TooDeep, "{shape} × {n}");
                assert!(e.span.offset < sql.len(), "{shape} × {n}: {e}");
                let (status, body) = roundtrip(&state, &mut conn, &post("/query", &sql));
                assert_eq!(status, 400, "{shape} × {n}: {body}");
                let error = Json::parse(&body).unwrap();
                let error = error.get("error").unwrap();
                assert_eq!(error.get("kind"), Some(&Json::str("sql")));
                assert_eq!(error.get("line"), Some(&Json::Int(1)));
                let col = error.get("col").and_then(Json::as_i64).unwrap();
                assert!(
                    (1..=sql.len() as i64).contains(&col),
                    "{shape} × {n}: {body}"
                );
                assert_eq!(health(&mut conn).0, 200);
            }
        }
        // An `/execute` body nested as deep as JSON may be still names its
        // statement; one nested far past that names none.
        let max = audb_server::json::MAX_DEPTH;
        let (status, _) = roundtrip(
            &state,
            &mut conn,
            &post("/prepare", "SELECT * FROM products"),
        );
        assert_eq!(status, 200);
        let body = |n| format!("{{\"id\": 0, \"x\": {}}}", nest("[", n, "", "]"));
        let (status, reply) = roundtrip(&state, &mut conn, &post("/execute", &body(max - 1)));
        assert_eq!(status, 200, "{reply}");
        for n in [max, 20_000] {
            let body = body(n);
            let e = Json::parse(&body).unwrap_err();
            assert!(e.offset < body.len(), "[ × {n}: {e}");
            let (status, reply) = roundtrip(&state, &mut conn, &post("/execute", &body));
            assert_eq!(status, 400, "[ × {n}: {reply}");
            assert!(reply.contains("\"kind\":\"bad_request\""), "{reply}");
            assert_eq!(health(&mut conn).0, 200);
        }
    })
    .join()
    .expect("every nesting assertion holds");
}

#[test]
fn health_and_stats_shapes() {
    let state = state();
    let mut conn = ConnState::default();
    let (status, body) = roundtrip(&state, &mut conn, &request("GET", "/health", ""));
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true}");

    // Each table reports its row/column counts, how it is stored (stats
    // zones summed over its segments, and the segments), and whether each
    // segment's statistics describe its rows.
    let (_, body) = roundtrip(&state, &mut conn, &request("GET", "/stats", ""));
    assert_eq!(body, "{\"requests\":1,\"errors\":0,\"threads\":1,\"catalog_version\":2,\"tables\":[{\"name\":\"products\",\"rows\":5,\"cols\":2,\"zones\":1,\"segments\":1,\"stats_fresh\":true},{\"name\":\"readings\",\"rows\":8,\"cols\":3,\"zones\":1,\"segments\":1,\"stats_fresh\":true}],\"plan_cache\":{\"hits\":0,\"misses\":0,\"answered\":0,\"dropped\":0,\"len\":0,\"capacity\":256}}");

    // An append adds a segment of its own, and its zones.
    let batch = "sku,price_lb,price,price_ub,mult_lb,mult_sg,mult_ub\n6,20,21,22,1,1,1\n";
    roundtrip(&state, &mut conn, &post("/append?name=products", batch));
    let (_, body) = roundtrip(&state, &mut conn, &request("GET", "/stats", ""));
    let stats = Json::parse(&body).unwrap();
    let Some(Json::Arr(tables)) = stats.get("tables") else {
        panic!("no tables in {body}");
    };
    for (member, want) in [("rows", 6), ("zones", 2), ("segments", 2)] {
        assert_eq!(tables[0].get(member), Some(&Json::Int(want)), "{member}");
    }
    assert_eq!(tables[0].get("stats_fresh"), Some(&Json::Bool(true)));
}
