//! The one file through which the end-to-end binary reaches the engine:
//! `Session::{new, register, sql}`, `read_au_csv`, `serve` with its
//! state and configuration, and HTTP bytes. A refactor of any deeper API
//! cannot break `bench-e2e`; re-pointing it is an edit to this file.

use crate::json::Json;
use crate::oracle::Rows;
use audb::core::AuRelation;
use audb::server::{serve, ServerConfig, ServerHandle, ServerState};
use audb::workloads::read_au_csv;
use audb::{Engine, Session, SharedCatalog};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Cap the engine's data-parallel helpers at `n` threads. Only ever
/// called while the process is single-threaded.
pub fn set_engine_threads(n: usize) {
    std::env::set_var("AUDB_THREADS", n.to_string());
}

/// The thread cap of every workload, unless the environment already sets
/// one: a single thread does the work (on the served path the client and
/// the one worker take turns). With two on this 2-core shared host an
/// operation waits for whichever vCPU the host serves last, and end to
/// end the partitioned window gained nothing from the second (README,
/// "Rules"; `par.speedup_2t` in the trace still probes it).
/// Called first thing in `main`.
pub fn cap_engine_threads() {
    if std::env::var_os("AUDB_THREADS").is_none() {
        set_engine_threads(1);
    }
}

/// The library path: one session on the native backend.
pub struct Library {
    session: Session,
}

impl Library {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Library {
        Library {
            session: Session::new(Engine::native()),
        }
    }

    /// Parse AU-CSV bytes and register them (statistics are computed
    /// eagerly at registration). Returns the row count.
    pub fn load(&self, name: &str, csv: &[u8]) -> Result<usize, String> {
        let rel = read_au_csv(csv).map_err(|e| format!("load {name}: {e}"))?;
        let rows = rel.len();
        self.session.register(name, rel);
        Ok(rows)
    }

    pub fn sql(&self, text: &str) -> Result<Answer, String> {
        self.session
            .sql(text)
            .map(Answer)
            .map_err(|e| format!("{e} in: {text}"))
    }
}

/// A library result, opaque until the oracle asks for its rows.
pub struct Answer(AuRelation);

impl Answer {
    pub fn row_count(&self) -> usize {
        self.0.len()
    }

    pub fn rows(&self) -> Result<Rows, String> {
        let rel = &self.0;
        let arity = rel.schema.arity();
        let int = |v: &audb::rel::Value| {
            v.as_i64()
                .ok_or_else(|| format!("non-integer value {v} in a result"))
        };
        let mut cells = Vec::with_capacity(rel.len() * arity);
        let mut mults = Vec::with_capacity(rel.len());
        for row in rel.rows() {
            for c in 0..arity {
                let v = row.tuple.get(c);
                cells.push([int(&v.lb)?, int(&v.sg)?, int(&v.ub)?]);
            }
            mults.push([row.mult.lb, row.mult.sg, row.mult.ub]);
        }
        Ok(Rows {
            cols: rel.schema.cols().to_vec(),
            cells,
            mults,
        })
    }
}

/// The served path: an in-process server with one worker and the default
/// keep-alive limit. Dropping it shuts the server down and joins its
/// threads.
pub struct Service {
    handle: ServerHandle,
}

impl Service {
    pub fn start() -> io::Result<Service> {
        let state = ServerState::new(Engine::native(), SharedCatalog::new(), 1);
        let config = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        Ok(Service {
            handle: serve(state, config)?,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// One HTTP reply.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// The integer member `key` of the reply object, read without parsing
    /// the whole body (`row_count` precedes the rows).
    pub fn int_member(&self, key: &str) -> Option<i64> {
        let needle = format!("\"{key}\":");
        let at = self
            .body
            .windows(needle.len())
            .position(|w| w == needle.as_bytes())?
            + needle.len();
        let digits: Vec<u8> = self.body[at..]
            .iter()
            .copied()
            .take_while(|b| b.is_ascii_digit() || *b == b'-')
            .collect();
        std::str::from_utf8(&digits).ok()?.parse().ok()
    }

    /// Decode a `/query` reply: every attribute is an `[lb, sg, ub]`
    /// triple.
    pub fn rows(&self) -> Result<Rows, String> {
        let json = Json::parse(&self.body)?;
        let member = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("reply has no array {key:?}"))
        };
        let triple = |j: &Json| -> Result<[i64; 3], String> {
            match j.as_arr() {
                Some([lb, sg, ub]) => match (lb.as_i64(), sg.as_i64(), ub.as_i64()) {
                    (Some(lb), Some(sg), Some(ub)) => Ok([lb, sg, ub]),
                    _ => Err(format!("non-integer triple {j:?}")),
                },
                _ => Err(format!("expected an [lb, sg, ub] triple, got {j:?}")),
            }
        };
        let cols: Vec<String> = member("schema")?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(String::from)
                    .ok_or("schema entry is not a string")
            })
            .collect::<Result<_, _>>()?;
        let mut cells = Vec::new();
        for row in member("rows")? {
            let row = row.as_arr().ok_or("row is not an array")?;
            if row.len() != cols.len() {
                return Err(format!("row of {} cells under {cols:?}", row.len()));
            }
            for cell in row {
                cells.push(triple(cell)?);
            }
        }
        let mults = member("mults")?
            .iter()
            .map(|m| triple(m).map(|[lb, sg, ub]| [lb as u64, sg as u64, ub as u64]))
            .collect::<Result<Vec<_>, _>>()?;
        if mults.len() * cols.len() != cells.len() {
            return Err("rows and mults differ in length".into());
        }
        Ok(Rows { cols, cells, mults })
    }
}

/// A keep-alive HTTP/1.1 client over one connection at a time. The server
/// closes a connection after its keep-alive limit; the client then
/// reconnects on the next request; `connects` counts every connection made.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    pub connects: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
            bytes_out: 0,
            bytes_in: 0,
        }
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Reply> {
        self.request("POST", target, body)
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.request("GET", target, &[])
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        conn.get_mut().write_all(&message)?;
        self.bytes_out += message.len() as u64;

        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        let mut received = conn.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut close) = (0usize, false);
        loop {
            line.clear();
            received += conn.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        self.bytes_in += (received + length) as u64;
        if close {
            self.conn = None;
        }
        Ok(Reply { status, body })
    }
}
