//! Set-up, the timed operation and the oracle-checked operation of every
//! workload, through the adapter only. The end-to-end binary is this plus
//! metric arithmetic; the traced binary reuses it for its untraced side.

use crate::adapter::{Client, Library, Reply, Service};
use crate::oracle::{self, Quality, Statement};
use crate::workload::{self, Inputs, Sizes};
use std::time::Instant;

enum Target {
    Library(Library),
    // The client is declared first so that it hangs up before the server
    // shuts down.
    Served { client: Client, _service: Service },
}

/// One set-up workload, ready to run operations.
pub struct Bench {
    pub inputs: Inputs,
    target: Target,
    /// The library script (empty for `serve_mix`, whose statements change
    /// with the round).
    script: Vec<Statement>,
    /// Result rows of each statement of an operation, as the oracle-checked
    /// warm-up operation returned them; every later operation must repeat
    /// them.
    expected_rows: Vec<usize>,
    next_round: usize,
}

/// What a timed operation measured.
pub struct Timed {
    /// Summed latency of the operation's statements or requests; checking
    /// the replies is not in it.
    pub latency_ms: f64,
    /// When each statement or request started and how long it took, in
    /// script order (`serve_mix`: append, top miss, top hit, page, window,
    /// then register if the round reset the table).
    pub parts: Vec<Part>,
    pub failure: Option<String>,
}

#[derive(Clone, Copy)]
pub struct Part {
    pub start: Instant,
    pub ms: f64,
}

impl Part {
    fn since(start: Instant) -> Part {
        Part {
            start,
            ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

impl Bench {
    /// Generate the inputs from the seed, load and register them (starting
    /// the server for `serve_mix`), and run the warm-up operations, the
    /// first of them checked by the oracle. Returns the seconds all of
    /// that took: one sample of `setup_s`.
    pub fn set_up(workload: &str, seed: u64, sizes: &Sizes) -> Result<(Bench, f64), String> {
        let start = Instant::now();
        let inputs = workload::inputs(workload, seed, sizes.rows);
        let (target, script) = if workload == "serve_mix" {
            let service = Service::start().map_err(|e| format!("start server: {e}"))?;
            let mut client = Client::new(service.addr());
            for (i, table) in inputs.tables.iter().enumerate() {
                let reply = client
                    .post(&format!("/register?name={}", table.name), &inputs.csvs[i])
                    .map_err(|e| format!("register {}: {e}", table.name))?;
                expect_int(&reply, "rows", inputs.base_rows[i])?;
            }
            (
                Target::Served {
                    client,
                    _service: service,
                },
                Vec::new(),
            )
        } else {
            let library = Library::new();
            for (i, table) in inputs.tables.iter().enumerate() {
                let rows = library.load(table.name, &inputs.csvs[i])?;
                if rows != inputs.base_rows[i] {
                    return Err(format!("{} loaded {rows} rows", table.name));
                }
            }
            let script = workload::script(workload, &inputs);
            (Target::Library(library), script)
        };
        let mut bench = Bench {
            inputs,
            target,
            script,
            expected_rows: Vec::new(),
            next_round: 0,
        };
        bench.checked_op()?;
        for _ in 1..sizes.warmup {
            if let Some(failure) = bench.timed_op().failure {
                return Err(format!("warm-up: {failure}"));
            }
        }
        Ok((bench, start.elapsed().as_secs_f64()))
    }

    /// Result rows each statement of an operation must return.
    pub fn expected_rows(&self) -> &[usize] {
        &self.expected_rows
    }

    /// Bytes sent, bytes received and connections made so far (zeros on
    /// the library path).
    pub fn wire_counters(&self) -> (u64, u64, u64) {
        match &self.target {
            Target::Library(_) => (0, 0, 0),
            Target::Served { client, .. } => (client.bytes_out, client.bytes_in, client.connects),
        }
    }

    /// `GET target` on the served path.
    pub fn get(&mut self, target: &str) -> Result<Reply, String> {
        match &mut self.target {
            Target::Library(_) => Err("the library path has no endpoints".into()),
            Target::Served { client, .. } => client.get(target).map_err(|e| e.to_string()),
        }
    }

    /// One timed operation: a pass of the script, each reply checked for
    /// status and row count after its clock has stopped.
    pub fn timed_op(&mut self) -> Timed {
        let mut parts = Vec::with_capacity(6);
        let failure = match &mut self.target {
            Target::Library(library) => {
                let mut failure = None;
                for (stmt, &want) in self.script.iter().zip(&self.expected_rows) {
                    let start = Instant::now();
                    let answer = library.sql(&stmt.sql);
                    parts.push(Part::since(start));
                    let verdict = answer.and_then(|a| {
                        let got = a.row_count();
                        (got == want)
                            .then_some(())
                            .ok_or_else(|| format!("{got} rows, expected {want}: {}", stmt.sql))
                    });
                    failure = failure.or(verdict.err());
                }
                failure
            }
            Target::Served { client, .. } => {
                let round = workload::round(&self.inputs, self.next_round);
                self.next_round += 1;
                let mut request = |target: &str, body: &[u8], member: &str, want: usize| {
                    let start = Instant::now();
                    let reply = client.post(target, body);
                    parts.push(Part::since(start));
                    reply
                        .map_err(|e| format!("{target}: {e}"))
                        .and_then(|r| expect_int(&r, member, want))
                        .err()
                };
                let mut failure = None;
                let reset = round.reset.then(|| {
                    request(
                        "/register?name=w",
                        &self.inputs.csvs[1],
                        "rows",
                        self.inputs.base_rows[1],
                    )
                });
                failure = failure.or(request(
                    "/append?name=w",
                    &self.inputs.batches[round.batch],
                    "rows",
                    round.w_rows,
                ));
                for (stmt, &want) in round.queries.iter().zip(&self.expected_rows) {
                    failure = failure.or(request("/query", stmt.sql.as_bytes(), "row_count", want));
                }
                if let Some(reset) = reset {
                    // The register request ran first; report it last so
                    // that the five fixed parts keep their places.
                    let register = parts.remove(0);
                    parts.push(register);
                    failure = failure.or(reset);
                }
                failure
            }
        };
        Timed {
            latency_ms: parts.iter().map(|p| p.ms).sum(),
            parts,
            failure,
        }
    }

    /// One untimed operation with every result row checked against the
    /// oracle. Records the row counts later operations must repeat and
    /// returns the tightness of each statement's result.
    pub fn checked_op(&mut self) -> Result<Vec<Quality>, String> {
        let (mut returned, mut verdicts) = (Vec::new(), Vec::new());
        match &mut self.target {
            Target::Library(library) => {
                for stmt in &self.script {
                    let rows = library.sql(&stmt.sql)?.rows()?;
                    returned.push(rows.mults.len());
                    verdicts.push(oracle::check(stmt, &self.inputs.tables[stmt.table], &rows));
                }
            }
            Target::Served { client, .. } => {
                let round = workload::round(&self.inputs, self.next_round);
                self.next_round += 1;
                let mut post = |target: &str, body: &[u8]| {
                    client
                        .post(target, body)
                        .map_err(|e| format!("{target}: {e}"))
                };
                if round.reset {
                    let reply = post("/register?name=w", &self.inputs.csvs[1])?;
                    expect_int(&reply, "rows", self.inputs.base_rows[1])?;
                }
                let reply = post("/append?name=w", &self.inputs.batches[round.batch])?;
                expect_int(&reply, "rows", round.w_rows)?;
                for stmt in &round.queries {
                    let reply = post("/query", stmt.sql.as_bytes())?;
                    if reply.status != 200 {
                        return Err(format!("status {} for: {}", reply.status, stmt.sql));
                    }
                    let rows = reply.rows()?;
                    returned.push(rows.mults.len());
                    verdicts.push(oracle::check(stmt, &self.inputs.tables[stmt.table], &rows));
                }
            }
        }
        self.expected_rows = returned;
        verdicts.into_iter().collect()
    }

    /// [`Bench::checked_op`] summed up: whether the oracle agreed (its
    /// objection goes to standard error), and the two tightness figures of
    /// [`oracle::summarize`] (zeros after an objection).
    pub fn checked_tightness(&mut self) -> (bool, f64, f64) {
        match self.checked_op() {
            Ok(quality) => {
                let (width, certain) = oracle::summarize(&quality);
                (true, width, certain)
            }
            Err(violation) => {
                eprintln!("oracle violation: {violation}");
                (false, 0.0, 0.0)
            }
        }
    }

    /// Tear down (the server, if any, shuts down and its threads are
    /// joined) and keep the generated inputs.
    pub fn into_inputs(self) -> Inputs {
        self.inputs
    }
}

fn expect_int(reply: &Reply, member: &str, want: usize) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body[..reply.body.len().min(200)])
        ));
    }
    match reply.int_member(member) {
        Some(got) if got == want as i64 => Ok(()),
        got => Err(format!("reply has {member} = {got:?}, expected {want}")),
    }
}
