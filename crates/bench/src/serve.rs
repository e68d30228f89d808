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

use audb_engine::{BackendChoice, Engine, SharedCatalog};
use audb_server::{serve, ServerConfig, ServerState};
use audb_workloads::csvload;
use std::io;
use std::path::Path;
use std::time::Duration;

fn parse_backend(v: &str) -> BackendChoice {
    match v {
        "reference" => BackendChoice::Reference,
        "native" => BackendChoice::Native,
        "rewrite" => BackendChoice::Rewrite,
        other => panic!("unknown backend {other:?} (reference|native|rewrite)"),
    }
}

/// `repro serve` entry point. Blocks until the process is killed.
pub fn serve_cli(args: &[String]) -> io::Result<()> {
    let mut data_dir = "workloads".to_string();
    let mut tables: Vec<(String, String)> = Vec::new();
    let mut config = ServerConfig {
        port: 7878,
        ..ServerConfig::default()
    };
    let mut backend = BackendChoice::Native;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--data" => data_dir = val("--data"),
            "--table" => {
                let spec = val("--table");
                let (name, path) = spec
                    .split_once('=')
                    .unwrap_or_else(|| panic!("--table needs name=path.csv, got {spec:?}"));
                tables.push((name.to_string(), path.to_string()));
            }
            "--port" => config.port = val("--port").parse().expect("--port must be a port number"),
            "--threads" => {
                config.threads = val("--threads")
                    .parse()
                    .expect("--threads must be an integer")
            }
            "--backend" => backend = parse_backend(&val("--backend")),
            "--port-file" => port_file = Some(val("--port-file")),
            other => panic!("unknown serve flag {other:?}"),
        }
    }

    let catalog = SharedCatalog::new();
    if Path::new(&data_dir).is_dir() {
        for (name, rel) in csvload::load_au_dir(&data_dir)? {
            catalog.register(name, rel);
        }
    }
    for (name, path) in &tables {
        catalog.register(name.clone(), csvload::load_au_csv(path)?);
    }
    let listing: Vec<String> = catalog
        .snapshot()
        .iter()
        .map(|(n, r)| format!("{n} ({} rows)", r.len()))
        .collect();

    let threads = config.threads;
    let state = ServerState::new(Engine::new(backend), catalog, threads);
    let handle = serve(state, config)?;
    println!(
        "audb-server listening on http://{} — {} workers, backend {}, tables: {}",
        handle.addr(),
        threads,
        backend,
        if listing.is_empty() {
            "(none)".to_string()
        } else {
            listing.join(", ")
        }
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", handle.addr().port()))?;
        println!("wrote port to {path}");
    }
    // Serve until killed; the handle's worker pool does all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
