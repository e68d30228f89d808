//! `repro serve` — run the SQL service.
//!
//! ```text
//! repro serve [--data DIR] [--table name=path.csv]... [--port P]
//!             [--threads N] [--backend reference|native|rewrite]
//!             [--port-file PATH]
//! ```
//!
//! `serve` loads CSV tables exactly like `repro sql` (every `*.csv` in
//! `--data`, default `workloads/`, plus explicit `--table` pairs) into a
//! shared catalog and serves until killed. `--port 0` binds an ephemeral
//! port; `--port-file` writes the bound port for scripts (the CI smoke
//! step) to pick up.
//!
//! The served path is measured by the repo benchmark's `serve_mix`
//! workload (`benchmark/`), not here.

use crate::sqlcli::{load_catalog, table_arg};
use audb_engine::Engine;
use audb_server::{serve, ServerConfig, ServerState};
use std::time::Duration;

/// `repro serve` entry point. Every flag is read before anything loads or
/// binds: a bad one is an `Err`, and the process never listens. Blocks
/// until the process is killed.
pub fn serve_cli(args: &[String]) -> Result<(), String> {
    let mut data_dir = "workloads".to_string();
    let mut tables: Vec<(String, String)> = Vec::new();
    let mut config = ServerConfig {
        port: 7878,
        ..ServerConfig::default()
    };
    let mut backend = Engine::Native;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--data" => data_dir = val()?.clone(),
            "--table" => tables.push(table_arg(val()?)?),
            "--port" => {
                let v = val()?;
                config.port = v
                    .parse()
                    .map_err(|_| format!("--port {v:?} is not a port number"))?;
            }
            "--threads" => {
                let v = val()?;
                config.threads = v
                    .parse()
                    .map_err(|_| format!("--threads {v:?} is not an integer"))?;
            }
            "--backend" => backend = val()?.parse()?,
            "--port-file" => port_file = Some(val()?.clone()),
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    let io = |e: std::io::Error| e.to_string();

    let (catalog, listing) = load_catalog(&data_dir, &tables).map_err(io)?;

    let threads = config.threads;
    let state = ServerState::new(backend, catalog, threads);
    let handle = serve(state, config).map_err(io)?;
    println!(
        "audb-server listening on http://{} — {threads} workers, backend {backend}, tables: {listing}",
        handle.addr(),
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", handle.addr().port())).map_err(io)?;
        println!("wrote port to {path}");
    }
    // Serve until killed; the handle's worker pool does all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::serve_cli;

    /// `serve_cli`'s refusal of `args` — returned while parsing flags,
    /// before any table loads or any port is bound.
    fn refused(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        serve_cli(&args).expect_err("a bad flag is refused")
    }

    #[test]
    fn a_flag_without_its_value_is_refused() {
        assert_eq!(refused(&["--port"]), "--port needs a value");
    }

    #[test]
    fn a_table_that_is_not_name_eq_path_is_refused() {
        let e = refused(&["--port", "0", "--table", "products.csv"]);
        assert!(e.contains("is not name=path.csv"), "{e}");
    }

    #[test]
    fn a_port_that_is_not_a_number_is_refused() {
        let e = refused(&["--port", "http"]);
        assert!(e.contains("is not a port number"), "{e}");
    }

    #[test]
    fn a_thread_count_that_is_not_a_number_is_refused() {
        let e = refused(&["--port", "0", "--threads", "many"]);
        assert!(e.contains("is not an integer"), "{e}");
    }

    #[test]
    fn an_unknown_backend_is_refused_naming_the_methods() {
        let e = refused(&["--port", "0", "--backend", "bogus"]);
        assert!(e.contains("reference|native|rewrite"), "{e}");
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        let e = refused(&["--port", "0", "--verbose"]);
        assert_eq!(e, "unknown serve flag \"--verbose\"");
    }
}
