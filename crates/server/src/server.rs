//! The server proper: a `TcpListener` accept loop feeding a fixed-size
//! worker pool over an mpsc channel.
//!
//! Threading model: the acceptor thread only accepts; each accepted
//! connection is sent down the channel and one worker owns it until it
//! closes (HTTP keep-alive). To keep the pool fair when there are more
//! clients than workers, a worker returns a connection's socket to the
//! back of the queue after [`ServerConfig::keepalive_limit`] requests
//! (advertising `Connection: close`), so 64 clients rotate over 4 workers
//! instead of 4 clients monopolizing them.
//!
//! Shutdown: [`ServerHandle::shutdown`] flips an atomic flag and pokes the
//! listener with a wake-up connection so `accept` returns; workers drain
//! when the channel closes.

use crate::http;
use crate::state::{ConnState, ServerState};
use crate::wire;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration. `port: 0` binds an ephemeral port (the bound
/// address is on the returned handle).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker-pool size.
    pub threads: usize,
    /// Requests served on one connection before the server closes it to
    /// requeue the client (pool fairness under keep-alive).
    pub keepalive_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            threads: default_threads(),
            keepalive_limit: 100,
        }
    }
}

/// `max(2, available_parallelism)`: at least two workers so one slow
/// query never serializes the whole service.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// A running server. Dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (127.0.0.1 with the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters, plan cache, catalog).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stop accepting, drain the workers, and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Shutdown is a once-per-server event: SeqCst ordering makes the
        // flag's visibility trivially correct relative to the wake-up
        // connection below (Release/Acquire would do; the stronger
        // ordering costs nothing off the request path).
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind, spawn the pool, and return. Serving continues until the handle
/// is shut down or dropped.
pub fn serve(state: ServerState, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let state = Arc::new(state);
    let stop = Arc::new(AtomicBool::new(false));

    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..config.threads.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let limit = config.keepalive_limit.max(1);
            std::thread::Builder::new()
                .name(format!("audb-worker-{i}"))
                .spawn(move || worker_loop(&rx, &state, limit))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("audb-acceptor".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    // SeqCst ordering pairs with the store in
                    // stop_and_join; see the justification there.
                    if stop.load(Ordering::SeqCst) {
                        break; // tx drops here; workers drain and exit.
                    }
                    match conn {
                        Ok(stream) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        state,
        stop,
        acceptor: Some(acceptor),
        workers,
    })
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &Arc<ServerState>, limit: usize) {
    loop {
        // Hold the lock only to receive; serving happens unlocked.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match stream {
            Ok(stream) => serve_connection(stream, state, limit),
            Err(_) => return, // channel closed: shutdown.
        }
    }
}

/// Serve one connection until the client closes, an I/O or parse error
/// occurs, or the keep-alive request limit is reached.
fn serve_connection(stream: TcpStream, state: &Arc<ServerState>, limit: usize) {
    // A read timeout bounds how long an idle keep-alive connection can
    // park a worker.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut conn = ConnState::default();

    for served in 1..=limit {
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close
            Err(_) => return,   // timeout / malformed: drop the connection
        };
        let keep_alive = request.keep_alive && served < limit;
        let (status, reply) = wire::handle(state, &mut conn, &request);
        let mut body = String::new();
        reply.write(&mut body);
        if http::write_response(
            &mut write_half,
            status,
            "application/json",
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}
