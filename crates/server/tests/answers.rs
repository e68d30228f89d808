//! A cached plan and its kept answer, against a fresh server.
//!
//! The plan cache keeps a plan as long as the table version it reads is the
//! published one, and a statement keeps its normalized answer
//! (`PlanCache::answer`). Both are sound only if nothing a reply carries
//! depends on what the cache remembers: every reply must equal what a
//! server that has never answered anything returns over the same catalog.
//! These tests drive `wire::handle` — interleaved `/register`, `/append`,
//! `/query`, `/prepare` and `/execute` over two tables, a reply past the
//! answer bound, and readers racing a writer — and compare each reply's
//! `schema`, `row_count`, `rows` and `mults` with a fresh server's.

use audb_engine::{Engine, SharedCatalog};
use audb_server::http::Request;
use audb_server::{wire, ConnState, Json, ServerState};
use std::collections::BTreeMap;
use std::sync::Barrier;

/// xorshift64*: a deterministic stream per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

const HEADER: &str = "k,v_lb,v,v_ub,mult_lb,mult_sg,mult_ub\n";

/// One AU-CSV row: a certain key, a ranged value, a multiplicity triple.
fn row(rng: &mut Rng) -> String {
    let k = rng.below(8);
    let lb = rng.below(10);
    let sg = lb + rng.below(3);
    let ub = sg + rng.below(3);
    let m_lb = rng.below(2);
    let m_sg = m_lb + rng.below(2);
    let m_ub = (m_sg + rng.below(2)).max(1);
    format!("{k},{lb},{sg},{ub},{m_lb},{m_sg},{m_ub}\n")
}

fn csv(rows: &[String]) -> String {
    format!("{HEADER}{}", rows.concat())
}

fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn post(state: &ServerState, conn: &mut ConnState, target: &str, body: &str) -> (u16, Json) {
    wire::handle(state, conn, &request("POST", target, body))
}

fn empty_state() -> ServerState {
    ServerState::new(Engine::native(), SharedCatalog::new(), 1)
}

/// The catalog as the test keeps it: each table's rows, as AU-CSV lines.
type Model = BTreeMap<String, Vec<String>>;

/// A server that has answered nothing, over `model`.
fn fresh(model: &Model) -> ServerState {
    let state = empty_state();
    for (name, rows) in model {
        let (status, _) = post(
            &state,
            &mut ConnState::default(),
            &format!("/register?name={name}"),
            &csv(rows),
        );
        assert_eq!(status, 200);
    }
    state
}

/// What of a reply must not depend on the server's history: the answer
/// members of a 200, the whole body of anything else.
fn answer_of(status: u16, body: &Json) -> (u16, String) {
    if status != 200 {
        return (status, body.to_string());
    }
    let members = ["schema", "row_count", "rows", "mults"]
        .map(|m| body.get(m).map(Json::to_string).unwrap_or_default());
    (status, members.join(" "))
}

/// `sql`'s answer from a fresh server over `model`.
fn fresh_answer(model: &Model, sql: &str) -> (u16, String) {
    let (status, body) = post(&fresh(model), &mut ConnState::default(), "/query", sql);
    answer_of(status, &body)
}

fn statements(table: &str) -> [String; 6] {
    [
        format!("SELECT * FROM {table}"),
        format!("SELECT * FROM {table} ORDER BY v AS pos"),
        format!("SELECT * FROM {table} ORDER BY v, k AS pos LIMIT 3"),
        format!("SELECT k FROM {table} WHERE v < 5"),
        format!("  SELECT k\nFROM {table} WHERE v < 5 ;"),
        format!(
            "SELECT *, SUM(v) OVER (ORDER BY k ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s \
             FROM {table}"
        ),
    ]
}

fn counter(state: &ServerState, name: &str) -> i64 {
    let (_, stats) = wire::handle(
        state,
        &mut ConnState::default(),
        &request("GET", "/stats", ""),
    );
    stats
        .get("plan_cache")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no plan_cache.{name} in {stats}"))
}

/// Random interleavings over two tables: every `/query`, every `/execute`
/// right after its `/prepare`, and every later `/execute` of a statement
/// prepared before some publications answers exactly as a fresh server
/// over the catalog its plan was bound to.
#[test]
fn interleavings_answer_as_a_fresh_server_does() {
    let (mut answered, mut dropped) = (0, 0);
    for seed in 0..48 {
        let mut rng = Rng::new(seed);
        let state = empty_state();
        let mut conn = ConnState::default();
        let mut model = Model::new();
        // Statements prepared on `conn`: id, SQL, the catalog at prepare.
        let mut held: Vec<(i64, String, Model)> = Vec::new();
        for step in 0..60 {
            let table = ["a", "b"][rng.below(2) as usize];
            let sql = statements(table)[rng.below(6) as usize].clone();
            let context = format!("seed {seed} step {step}: {sql}");
            match rng.below(20) {
                0..=2 => {
                    // Half the time as many rows as the table has: a
                    // re-registered version may not differ in size.
                    let n = match model.get(table) {
                        Some(rows) if rng.below(2) == 0 => rows.len(),
                        _ => 1 + rng.below(12) as usize,
                    };
                    let rows: Vec<String> = (0..n).map(|_| row(&mut rng)).collect();
                    let target = format!("/register?name={table}");
                    let (status, _) = post(&state, &mut conn, &target, &csv(&rows));
                    assert_eq!(status, 200, "{context}");
                    model.insert(table.to_string(), rows);
                }
                3..=7 => {
                    let rows: Vec<String> = (0..rng.below(4)).map(|_| row(&mut rng)).collect();
                    let target = format!("/append?name={table}");
                    let (status, _) = post(&state, &mut conn, &target, &csv(&rows));
                    match model.get_mut(table) {
                        Some(stored) => {
                            assert_eq!(status, 200, "{context}");
                            stored.extend(rows);
                        }
                        None => assert_eq!(status, 404, "{context}"),
                    }
                }
                8..=14 => {
                    let (status, body) = post(&state, &mut conn, "/query", &sql);
                    assert_eq!(
                        answer_of(status, &body),
                        fresh_answer(&model, &sql),
                        "{context}"
                    );
                }
                15..=17 => {
                    let (status, body) = post(&state, &mut conn, "/prepare", &sql);
                    let Some(id) = body.get("id").and_then(Json::as_i64) else {
                        assert_eq!(status, 404, "{context}: {body}");
                        continue;
                    };
                    let (status, body) = post(&state, &mut conn, &format!("/execute?id={id}"), "");
                    assert_eq!(
                        answer_of(status, &body),
                        fresh_answer(&model, &sql),
                        "{context}"
                    );
                    held.push((id, sql, model.clone()));
                }
                _ => {
                    if held.is_empty() {
                        continue;
                    }
                    let (id, sql, then) = &held[rng.below(held.len() as u64) as usize];
                    let (status, body) = post(&state, &mut conn, &format!("/execute?id={id}"), "");
                    assert_eq!(
                        answer_of(status, &body),
                        fresh_answer(then, sql),
                        "{context}"
                    );
                }
            }
        }
        answered += counter(&state, "answered");
        dropped += counter(&state, "dropped");
    }
    assert!(
        answered > 0 && dropped > 0,
        "answered {answered}, dropped {dropped}"
    );
}

/// An answer past `MAX_ANSWER_BYTES` is not kept: each request executes
/// it again, and `answered` moves only for the small answer.
#[test]
fn an_answer_past_the_bound_is_recomputed_on_every_request() {
    let state = empty_state();
    let mut conn = ConnState::default();
    // 20 000 rows of one certain integer: 32 bytes a row with the
    // multiplicities, ≈ 640 KB.
    let rows: String = (0..20_000).map(|k| format!("{k}\n")).collect();
    let (status, _) = post(
        &state,
        &mut conn,
        "/register?name=big",
        &format!("k\n{rows}"),
    );
    assert_eq!(status, 200);
    let (status, _) = post(&state, &mut conn, "/prepare", "SELECT * FROM big");
    assert_eq!(status, 200);
    let mut first = None;
    for _ in 0..3 {
        let (status, body) = post(&state, &mut conn, "/query", "SELECT * FROM big");
        assert_eq!(status, 200);
        // The plan is cached (the `/prepare` above); its answer is not.
        let hit = body.get("cache").and_then(|c| c.get("hit"));
        assert_eq!(hit, Some(&Json::Bool(true)));
        let (status, executed) = post(&state, &mut conn, "/execute?id=0", "");
        assert_eq!(status, 200);
        let answer = answer_of(status, &body);
        assert_eq!(answer, answer_of(status, &executed));
        assert_eq!(body.get("row_count"), Some(&Json::Int(20_000)));
        assert_eq!(first.get_or_insert_with(|| answer.clone()), &answer);
        assert_eq!(counter(&state, "answered"), 0);
    }
    for _ in 0..2 {
        post(
            &state,
            &mut conn,
            "/query",
            "SELECT * FROM big ORDER BY k AS pos LIMIT 2",
        );
    }
    assert_eq!(counter(&state, "answered"), 1);
}

/// Readers of `a` — `/query` and `/execute` of statements they prepared
/// first — race a writer appending to `b` and to `a`. Each answer is the
/// answer over some version of `a`, computed single-threaded first; a
/// reader's `/query` never goes back to an older version, and a held
/// statement answers for the version it was prepared on every time.
#[test]
fn readers_race_appends_to_their_table_and_another() {
    const BATCHES: usize = 12;
    let mut rng = Rng::new(7);
    let base: Vec<String> = (0..16).map(|_| row(&mut rng)).collect();
    let batches: Vec<String> = (0..BATCHES).map(|_| row(&mut rng)).collect();
    let sqls = [
        "SELECT * FROM a ORDER BY v, k AS pos LIMIT 4",
        "SELECT k FROM a WHERE v < 5",
    ];
    // expected[s][m]: statement `s` over `a` after `m` appended batches.
    let expected: Vec<Vec<(u16, String)>> = sqls
        .iter()
        .map(|sql| {
            (0..=BATCHES)
                .map(|m| {
                    let rows = [&base[..], &batches[..m]].concat();
                    fresh_answer(&Model::from([("a".to_string(), rows)]), sql)
                })
                .collect()
        })
        .collect();
    // The first version at or after `from` whose answer is `got`.
    let version_of = |s: usize, from: usize, got: &(u16, String)| {
        (from..=BATCHES).find(|&m| &expected[s][m] == got)
    };

    let state = empty_state();
    let mut conn = ConnState::default();
    post(&state, &mut conn, "/register?name=a", &csv(&base));
    post(&state, &mut conn, "/register?name=b", &csv(&base));
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut conn = ConnState::default();
                let held: Vec<(i64, usize)> = sqls
                    .iter()
                    .enumerate()
                    .map(|(s, sql)| {
                        let (_, body) = post(&state, &mut conn, "/prepare", sql);
                        let id = body.get("id").and_then(Json::as_i64).expect("prepared");
                        (id, s)
                    })
                    .collect();
                let mut pinned: Vec<Option<usize>> = vec![None; sqls.len()];
                let mut seen = vec![0; sqls.len()];
                start.wait();
                for _ in 0..150 {
                    for (s, sql) in sqls.iter().enumerate() {
                        let (status, body) = post(&state, &mut conn, "/query", sql);
                        let got = answer_of(status, &body);
                        seen[s] = version_of(s, seen[s], &got).unwrap_or_else(|| {
                            panic!("{sql}: no version from {}: {got:?}", seen[s])
                        });
                    }
                    for &(id, s) in &held {
                        let target = format!("/execute?id={id}");
                        let (status, body) = post(&state, &mut conn, &target, "");
                        let got = answer_of(status, &body);
                        let m = version_of(s, 0, &got).expect("some version's answer");
                        assert_eq!(*pinned[s].get_or_insert(m), m, "a held statement moved");
                    }
                }
            });
        }
        scope.spawn(|| {
            let mut conn = ConnState::default();
            start.wait();
            for batch in &batches {
                for table in ["b", "a"] {
                    let target = format!("/append?name={table}");
                    let (status, _) = post(
                        &state,
                        &mut conn,
                        &target,
                        &csv(std::slice::from_ref(batch)),
                    );
                    assert_eq!(status, 200);
                }
            }
        });
    });
    for (s, sql) in sqls.iter().enumerate() {
        let (status, body) = post(&state, &mut conn, "/query", sql);
        assert_eq!(answer_of(status, &body), expected[s][BATCHES], "{sql}");
    }
}
