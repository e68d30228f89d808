//! Wire encoding and request routing: AU-relations, explain reports and
//! structured errors in and out of [`Json`], plus the endpoint dispatch
//! table. Pure functions of `(state, request)` — no sockets here — so the
//! whole wire surface golden-tests without a server.
//!
//! ## Response shapes (a compatibility surface, golden-tested)
//!
//! Query results: `{"schema": [...], "row_count": N, "rows": [[[lb,sg,ub],
//! ...], ...], "mults": [[lb,sg,ub], ...], "cache": {"hit": bool, "hits":
//! H, "misses": M}, "elapsed_us": T}` — every attribute is always the
//! `[lb, sg, ub]` triple (certain values repeat), rows are normalized, so
//! equal requests encode byte-identically (modulo `elapsed_us`). `rows`
//! and `mults` are encoded straight from the result's typed lanes into
//! text ([`Json::Raw`]): no node per cell, no tuple per row, no `Value`
//! per integer. `/query` and `/execute` read a statement's normalized
//! answer through [`audb_engine::PlanCache::answer`]: a statement over an
//! unchanged table version is executed once, and encoded per reply.
//!
//! Ingest (`/register`, `/append`) parses AU-CSV straight into columns —
//! the catalog's stored form — so no row form of a served table is ever
//! built on the way in.
//!
//! Errors: `{"error": {"kind": <machine tag>, "message": <human text>}}`
//! plus `"line"`/`"col"` members when the failure has a position in the
//! query text. The `kind` values come from
//! [`SessionError::kind`](audb_engine::SessionError::kind) — among them
//! `multiplicity_overflow`, a result whose identical rows add up past
//! `u64` where it is normalized for the reply — but for the request-level
//! ones of this module.

use crate::http::Request;
use crate::json::{int_text, uint_text, write_float, write_int, write_string, Json};
use crate::state::{ConnState, ServerState};
use audb_core::{AuColumn, AuColumns, Corner, PhysSlice, PhysType};
use audb_engine::{BackendRun, Prepared, RunAll, SessionError};
use audb_rel::Value;
use std::time::Instant;

/// An HTTP status plus its JSON body.
pub type Reply = (u16, Json);

/// Route one parsed request. Infallible: every failure becomes a
/// structured error reply.
pub fn handle(state: &ServerState, conn: &mut ConnState, req: &Request) -> Reply {
    let started = Instant::now();
    let reply = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (200, Json::obj([("ok", Json::Bool(true))])),
        ("GET", "/stats") => (200, stats_body(state)),
        ("POST", "/query") => query(state, req, started),
        ("POST", "/prepare") => prepare(state, conn, req),
        ("POST", "/execute") => execute(state, conn, req, started),
        ("POST", "/explain") => explain(state, req),
        ("POST", "/run_all") => run_all(state, req, started),
        ("POST", "/register") => register(state, req),
        ("POST", "/append") => append(state, req),
        ("GET" | "POST", _) => (
            404,
            error_body(
                "unknown_route",
                &format!("no endpoint {:?}; see /health, /stats, /query, /prepare, /execute, /explain, /run_all, /register, /append", req.path),
                None,
            ),
        ),
        _ => (
            405,
            error_body(
                "method_not_allowed",
                &format!("method {} not allowed", req.method),
                None,
            ),
        ),
    };
    state.record(reply.0);
    reply
}

fn query(state: &ServerState, req: &Request, started: Instant) -> Reply {
    let session = state.session();
    let (prepared, hit) = match session.prepare_cached(&state.plan_cache, &req.body_text()) {
        Ok(p) => p,
        Err(e) => return session_error(&e),
    };
    match answer_body(state, &prepared) {
        Ok(mut body) => {
            body.set("cache", cache_body(state, hit));
            body.set("elapsed_us", Json::Int(elapsed_us(started)));
            (200, body)
        }
        Err(refused) => refused,
    }
}

fn prepare(state: &ServerState, conn: &mut ConnState, req: &Request) -> Reply {
    let session = state.session();
    match session.prepare_cached(&state.plan_cache, &req.body_text()) {
        Ok((prepared, hit)) => {
            let sql = prepared.plan().sql().map(str::to_string);
            let id = conn.store(prepared);
            let mut body = Json::obj([
                ("id", Json::Int(id as i64)),
                ("cache", cache_body(state, hit)),
            ]);
            if let Some(sql) = sql {
                body.set("sql", Json::Str(sql));
            }
            (200, body)
        }
        Err(e) => session_error(&e),
    }
}

fn execute(state: &ServerState, conn: &mut ConnState, req: &Request, started: Instant) -> Reply {
    // The statement id arrives as `?id=N` or a bare/JSON body.
    let id = req
        .query_param("id")
        .map(str::to_string)
        .or_else(|| {
            let text = req.body_text();
            let text = text.trim().to_string();
            Json::parse(&text)
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_i64).map(|i| i.to_string()))
                .or(Some(text))
        })
        .unwrap_or_default();
    let Ok(id) = id.parse::<u64>() else {
        return (
            400,
            error_body(
                "bad_request",
                "execute needs a statement id (?id=N or {\"id\": N})",
                None,
            ),
        );
    };
    let Some(prepared) = conn.lookup(id) else {
        return (
            404,
            error_body(
                "unknown_statement",
                &format!("no prepared statement {id} on this connection"),
                None,
            ),
        );
    };
    match answer_body(state, &prepared) {
        Ok(mut body) => {
            body.set("elapsed_us", Json::Int(elapsed_us(started)));
            (200, body)
        }
        Err(refused) => refused,
    }
}

fn explain(state: &ServerState, req: &Request) -> Reply {
    match state.session().explain_sql(&req.body_text()) {
        Ok(ex) => (
            200,
            Json::obj([
                ("backend", Json::str(ex.backend.to_string())),
                ("explain", Json::str(ex.to_string())),
            ]),
        ),
        Err(e) => session_error(&e),
    }
}

fn run_all(state: &ServerState, req: &Request, started: Instant) -> Reply {
    match state.session().run_all_sql(&req.body_text()) {
        Ok(RunAll { output, runs }) => match result_body(output) {
            Ok(mut body) => {
                body.set("backends", backends_body(&runs));
                body.set("elapsed_us", Json::Int(elapsed_us(started)));
                (200, body)
            }
            Err(refused) => refused,
        },
        Err(e) => session_error(&e),
    }
}

fn register(state: &ServerState, req: &Request) -> Reply {
    let Some(name) = req.query_param("name").map(str::to_string) else {
        return (
            400,
            error_body("bad_request", "register needs ?name=<table>", None),
        );
    };
    match audb_workloads::read_au_csv_columns(req.body.as_slice()) {
        Ok(cols) => {
            let rows = cols.len();
            state.catalog.register_columns(&name, cols);
            (
                200,
                Json::obj([
                    ("registered", Json::Str(name)),
                    ("rows", Json::Int(rows as i64)),
                    ("catalog_version", Json::Int(state.catalog.version() as i64)),
                ]),
            )
        }
        Err(e) => (400, error_body("bad_csv", &e.to_string(), None)),
    }
}

fn append(state: &ServerState, req: &Request) -> Reply {
    let Some(name) = req.query_param("name").map(str::to_string) else {
        return (
            400,
            error_body("bad_request", "append needs ?name=<table>", None),
        );
    };
    let batch = match audb_workloads::read_au_csv_columns(req.body.as_slice()) {
        Ok(batch) => batch,
        Err(e) => return (400, error_body("bad_csv", &e.to_string(), None)),
    };
    let appended = batch.len();
    match state.catalog.append_columns(&name, batch) {
        // The publish bumps the catalog version: the next lookup drops the
        // cached plans that read this table's pre-append version — the
        // next /query over it re-binds against the grown table — and keeps
        // every other. (An empty batch publishes nothing: same rows, same
        // version.)
        Ok((rows, version)) => (
            200,
            Json::obj([
                ("appended", Json::Int(appended as i64)),
                ("table", Json::Str(name)),
                ("rows", Json::Int(rows as i64)),
                ("catalog_version", Json::Int(version as i64)),
            ]),
        ),
        Err(e) => {
            let status = if e.kind() == "unknown_table" {
                404
            } else {
                400
            };
            (status, error_body(e.kind(), &e.to_string(), None))
        }
    }
}

fn stats_body(state: &ServerState) -> Json {
    let cache = state.plan_cache.stats();
    let snapshot = state.catalog.snapshot();
    Json::obj([
        ("requests", Json::Int(state.requests() as i64)),
        ("errors", Json::Int(state.errors() as i64)),
        ("threads", Json::Int(state.threads as i64)),
        ("catalog_version", Json::Int(state.catalog.version() as i64)),
        (
            "tables",
            Json::Arr(
                snapshot
                    .iter()
                    .map(|(name, table)| {
                        // A segment is published together with the sweep
                        // over exactly its rows, so statistics cannot be
                        // stale: true by construction, and re-checked here
                        // so a broken invariant would surface rather than
                        // be assumed.
                        let fresh =
                            (table.segments().iter()).all(|s| s.stats().rows == s.columns().len());
                        Json::obj([
                            ("name", Json::str(name)),
                            ("rows", Json::Int(table.len() as i64)),
                            ("cols", Json::Int(table.schema().arity() as i64)),
                            ("zones", Json::Int(table.zone_count() as i64)),
                            ("segments", Json::Int(table.segments().len() as i64)),
                            ("stats_fresh", Json::Bool(fresh)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "plan_cache",
            Json::obj([
                ("hits", Json::Int(cache.hits as i64)),
                ("misses", Json::Int(cache.misses as i64)),
                ("answered", Json::Int(cache.answered as i64)),
                ("dropped", Json::Int(cache.dropped as i64)),
                ("len", Json::Int(cache.len as i64)),
                ("capacity", Json::Int(cache.capacity as i64)),
            ]),
        ),
    ])
}

fn cache_body(state: &ServerState, hit: bool) -> Json {
    let stats = state.plan_cache.stats();
    Json::obj([
        ("hit", Json::Bool(hit)),
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
    ])
}

fn backends_body(runs: &[BackendRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|run| {
                Json::obj([
                    ("backend", Json::str(run.backend.to_string())),
                    ("mode", Json::str(run.mode.to_string())),
                    ("elapsed_us", Json::Int(run.elapsed.as_micros() as i64)),
                    ("rows", Json::Int(run.rows as i64)),
                ])
            })
            .collect(),
    )
}

/// The reply body of a prepared statement's answer — the one the statement
/// kept, or one executed and normalized now, and kept if small enough
/// ([`audb_engine::PlanCache::answer`]) — or its refusal.
fn answer_body(state: &ServerState, prepared: &Prepared) -> Result<Json, Reply> {
    match state.plan_cache.answer(&state.engine, prepared) {
        Ok(cols) => Ok(encode(&cols)),
        Err(e) => Err(session_error(&e)),
    }
}

/// A query's reply body, or — where identical rows of the result add up to
/// a multiplicity past `u64` — its refusal (`multiplicity_overflow`).
fn result_body(cols: AuColumns) -> Result<Json, Reply> {
    match cols.normalize() {
        Ok(cols) => Ok(encode(&cols)),
        Err(e) => Err(session_error(&e.into())),
    }
}

/// Encode a result — or the body of its refusal, where its identical rows
/// add up past `u64`. It is put in canonical order first
/// ([`AuColumns::normalize`]), so two bag-equal results encode identically
/// — the property the golden tests and the concurrency stress test lean
/// on.
pub fn relation_body(cols: AuColumns) -> Json {
    result_body(cols).unwrap_or_else(|(_, refused)| refused)
}

/// [`relation_body`] of a result in canonical order. `rows` and `mults` are
/// each written into one pre-sized buffer, row by row from the lanes: a
/// point — every cell of a certain column, a cell of a ranged one whose
/// certainty bit is set — is formatted once and copied twice.
fn encode(cols: &AuColumns) -> Json {
    let schema = Json::Arr(cols.schema().cols().iter().map(Json::str).collect());
    let lanes: Vec<ColumnLanes<'_>> = (0..cols.arity())
        .map(|c| ColumnLanes::of(cols, c))
        .collect();
    // An integer triple with its punctuation is about this many bytes.
    const TRIPLE: usize = 24;
    let mut rows = Vec::with_capacity(cols.len() * (cols.arity() * TRIPLE + 3) + 2);
    let mut mults = Vec::with_capacity(cols.len() * TRIPLE + 2);
    let mut scratch = String::new();
    let mult_lanes = [cols.mult_lb(), cols.mult_sg(), cols.mult_ub()];
    rows.push(b'[');
    mults.push(b'[');
    for i in 0..cols.len() {
        if i > 0 {
            rows.push(b',');
            mults.push(b',');
        }
        rows.push(b'[');
        for (c, col) in lanes.iter().enumerate() {
            if c > 0 {
                rows.push(b',');
            }
            col.write_triple(i, &mut rows, &mut scratch);
        }
        rows.push(b']');
        for (k, lane) in mult_lanes.iter().enumerate() {
            mults.push(if k == 0 { b'[' } else { b',' });
            mults.extend_from_slice(uint_text(lane[i], &mut [0; 21]));
        }
        mults.push(b']');
    }
    rows.push(b']');
    mults.push(b']');
    Json::obj([
        ("schema", schema),
        ("row_count", Json::Int(cols.len() as i64)),
        ("rows", Json::Raw(text(rows))),
        ("mults", Json::Raw(text(mults))),
    ])
}

/// An encoder's buffer as the text it is: every piece written to it was
/// ASCII punctuation, ASCII digits, or the bytes of a `str`.
fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// One attribute's three bound lanes, as the encoder reads them.
struct ColumnLanes<'a> {
    col: &'a AuColumn,
    bounds: [PhysSlice<'a>; 3],
    /// A point's three members are the same *bytes*, not just equal
    /// values: true of a certain column (one vector is all three) and of
    /// integer or string lanes. Equal floats need not print alike (`-0.0`
    /// and `0.0`), nor equal values of a `Generic` lane (`3` and `3.0`).
    points_copy: bool,
}

impl<'a> ColumnLanes<'a> {
    fn of(cols: &'a AuColumns, c: usize) -> Self {
        let col = cols.col(c);
        let points_copy =
            col.is_certain() || matches!(col.phys_type(), PhysType::I64 | PhysType::Str);
        ColumnLanes {
            col,
            bounds: [Corner::Lb, Corner::Sg, Corner::Ub].map(|corner| col.corner(corner)),
            points_copy,
        }
    }

    /// `[lb,sg,ub]` of row `i`.
    fn write_triple(&self, i: usize, out: &mut Vec<u8>, scratch: &mut String) {
        out.push(b'[');
        let start = out.len();
        write_cell(&self.bounds[0], i, out, scratch);
        if self.points_copy && self.col.certain_at(i) {
            let end = out.len();
            for _ in 0..2 {
                out.push(b',');
                out.extend_from_within(start..end);
            }
        } else {
            for bound in &self.bounds[1..] {
                out.push(b',');
                write_cell(bound, i, out, scratch);
            }
        }
        out.push(b']');
    }
}

/// Cell `i` of a lane, as the scalar [`Json`] of its kind writes it: an
/// `i64` straight from the lane into the buffer — no `Value`, no
/// formatter —, anything else through `scratch` and the scalar's own
/// writer (a dictionary string escaped from the pool).
fn write_cell(lane: &PhysSlice<'_>, i: usize, out: &mut Vec<u8>, scratch: &mut String) {
    scratch.clear();
    match lane {
        PhysSlice::I64(v) => return out.extend_from_slice(int_text(v[i], &mut [0; 21])),
        PhysSlice::F64(v) => write_float(scratch, v[i]),
        PhysSlice::Str { codes, pool } => write_string(scratch, pool.get(codes[i])),
        PhysSlice::Generic(v) => match &v[i] {
            Value::Null => Json::Null.write(scratch),
            Value::Bool(b) => Json::Bool(*b).write(scratch),
            Value::Int(k) => write_int(scratch, *k),
            Value::Float(f) => write_float(scratch, *f),
            Value::Str(s) => write_string(scratch, s),
        },
    }
    out.extend_from_slice(scratch.as_bytes());
}

/// Map a [`SessionError`] onto `(status, body)`: text/plan/semantic
/// errors are the client's fault (400), a missing table is 404 (the
/// resource does not exist), and a backend disagreement — an engine
/// invariant violation — is the server's fault (500).
pub fn session_error(e: &SessionError) -> Reply {
    let status = match e.kind() {
        "unknown_table" => 404,
        "backend_disagreement" => 500,
        _ => 400,
    };
    let span = e.span().map(|s| (s.line as i64, s.col as i64));
    (status, error_body(e.kind(), &e.to_string(), span))
}

fn error_body(kind: &str, message: &str, span: Option<(i64, i64)>) -> Json {
    let mut inner = Json::obj([("kind", Json::str(kind)), ("message", Json::str(message))]);
    if let Some((line, col)) = span {
        inner.set("line", Json::Int(line));
        inner.set("col", Json::Int(col));
    }
    Json::obj([("error", inner)])
}

fn elapsed_us(started: Instant) -> i64 {
    started.elapsed().as_micros() as i64
}
