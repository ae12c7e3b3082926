//! Idle and trickling connections must neither grow the server's threads
//! nor stall fresh requests for long.
//!
//! Drives the real `bed` binary from outside the process. It starts
//! `bed serve` on port 0 and checks that:
//!
//! - a few idle sockets, fewer than the worker pool, do not delay a query;
//! - under 200 idle sockets the thread count stays bounded by the pool;
//! - a fresh `/query` is answered within 2 s: a `200`, or a `503` carrying
//!   `Retry-After`;
//! - the shedding shows on `/metrics`;
//! - `/query` answers `200` again within 1 s of the idle sockets closing;
//! - clients trickling one byte every 300 ms hold a worker for one read
//!   timeout in all, not per byte, so a fresh `/query` gets a `200`
//!   within about a second;
//! - `SIGTERM` still exits cleanly with the summary line.

#![cfg(unix)]

use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Idle connections opened at once.
const IDLE: usize = 200;
/// The server's worker pool (`WORKERS` in `serve.rs`).
const WORKERS: usize = 8;
/// The worker pool, plus the acceptor, ingest, watcher and spare threads
/// the runtime may hold.
const MAX_THREADS: u64 = WORKERS as u64 + 4;
/// How long a trickling client keeps sending, far past the server's
/// 500 ms read timeout.
const TRICKLE_FOR: Duration = Duration::from_secs(6);
const QUERY: &str = "/query?kind=point&event=2&t=250&tau=40";

/// `GET path` on a fresh connection: `(head, body)` of the response.
///
/// A shed connection may be answered and closed before the request is
/// written, so a failed write or a reset after the reply is tolerated:
/// the reply is whatever arrived.
fn get(addr: &str, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let request = format!("GET {path} HTTP/1.1\r\nHost: bed\r\nConnection: close\r\n\r\n");
    let _ = s.write_all(request.as_bytes());
    let mut resp = Vec::new();
    if let Err(e) = s.read_to_end(&mut resp) {
        assert!(!resp.is_empty(), "no response to {path}: {e}");
    }
    let resp = String::from_utf8_lossy(&resp);
    let (head, body) = resp.split_once("\r\n\r\n").unwrap_or((&resp, ""));
    (head.to_string(), body.to_string())
}

/// Retries `GET path` until it answers `200` or `limit` runs out.
fn get_ok_within(addr: &str, path: &str, limit: Duration) -> String {
    let deadline = Instant::now() + limit;
    loop {
        let (head, body) = get(addr, path);
        if head.starts_with("HTTP/1.1 200") {
            return body;
        }
        assert!(Instant::now() < deadline, "no 200 for {path} within {limit:?}: {head}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Kills the server if the test fails before shutting it down.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// A running `bed serve` and the address it bound.
struct Server {
    child: Reap,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts `bed serve` on port 0 over a small stream named `name` and
    /// waits until it is ready.
    fn start(name: &str) -> Server {
        let dir = std::env::temp_dir().join("bed-flood-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join(name);
        let mut text = String::new();
        for t in 0..300u64 {
            text.push_str(&format!("{}\t{t}\n", t % 8));
        }
        std::fs::write(&input, text).unwrap();

        let mut child = Reap(
            Command::new(env!("CARGO_BIN_EXE_bed"))
                .args([
                    "serve",
                    "--input",
                    input.to_str().unwrap(),
                    "--universe",
                    "8",
                    "--addr",
                    "127.0.0.1:0",
                    "--publish-every",
                    "128",
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn bed serve"),
        );
        let mut stdout = BufReader::new(child.0.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .unwrap_or_else(|| panic!("no listen address in {line:?}"))
            .to_string();
        get_ok_within(&addr, "/readyz", Duration::from_secs(10));
        Server { child, stdout, addr }
    }

    fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// Sends `SIGTERM` and checks for a clean exit with the summary line.
    fn terminate(mut self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill failed");
        let status = self.child.0.wait().expect("wait for bed serve");
        assert!(status.success(), "bed serve exited with {status}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("served"), "missing summary: {rest:?}");
    }
}

fn threads(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn idle_connection_flood_is_shed_and_bounded() {
    let server = Server::start("idle.tsv");
    let (addr, pid) = (server.addr.as_str(), server.pid());

    // A few idle sockets, fewer than the pool, occupy only their own
    // workers: a query is answered at once, not after a read timeout.
    let few: Vec<TcpStream> =
        (0..4).map(|_| TcpStream::connect(addr).expect("idle connect")).collect();
    let started = Instant::now();
    let (head, body) = get(addr, QUERY);
    let took = started.elapsed();
    assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
    assert!(took < Duration::from_millis(400), "query behind 4 idle sockets took {took:?}");
    drop(few);

    // Connections that never send a byte.
    let idle: Vec<TcpStream> =
        (0..IDLE).map(|_| TcpStream::connect(addr).expect("idle connect")).collect();

    // A fresh query is answered promptly: served, or shed with a retry hint.
    let started = Instant::now();
    let (head, body) = get(addr, QUERY);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "fresh query took {took:?}");
    if head.starts_with("HTTP/1.1 503") {
        assert!(head.contains("\r\nRetry-After: 1"), "{head}");
    } else {
        assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
    }
    let n = threads(pid);
    assert!(n <= MAX_THREADS, "{n} threads under a flood of {IDLE} idle connections");

    // The shedding is visible to an operator.
    let scrape = get_ok_within(addr, "/metrics", Duration::from_secs(5));
    let shed: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("bed_server_shed_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no bed_server_shed_total in {scrape}"));
    assert!(shed >= 1, "nothing shed under {IDLE} idle connections");
    let n = threads(pid);
    assert!(n <= MAX_THREADS, "{n} threads after the flood drained");

    // Once the idle sockets close, queries are served again within 1 s.
    drop(idle);
    get_ok_within(addr, QUERY, Duration::from_secs(1));

    server.terminate();
}

/// Clients that send one byte every 300 ms, each read alone well inside
/// a per-read timeout, must not hold the pool: the server gives each
/// connection one deadline for its whole request.
#[test]
fn trickling_clients_do_not_hold_the_pool() {
    let server = Server::start("trickle.tsv");
    let addr = server.addr.as_str();
    let request = format!("GET {QUERY} HTTP/1.1\r\nHost: bed\r\n\r\n");

    let started = Instant::now();
    let released: Vec<Option<Duration>> = std::thread::scope(|scope| {
        // More tricklers than workers: the pool is full and two wait in
        // the queue.
        let tricklers: Vec<_> = (0..WORKERS + 2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("trickle connect");
                s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
                let request = request.as_bytes();
                scope.spawn(move || {
                    // Each wait for the next byte doubles as a check for
                    // the server's close (or reply).
                    for byte in request.iter().take(TRICKLE_FOR.as_millis() as usize / 300) {
                        if s.write_all(std::slice::from_ref(byte)).is_err() {
                            return Some(started.elapsed());
                        }
                        let mut buf = [0u8; 512];
                        match s.read(&mut buf) {
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::TimedOut
                                ) => {}
                            _ => return Some(started.elapsed()),
                        }
                    }
                    None
                })
            })
            .collect();

        // Real traffic gets through within about a second: the pool frees
        // after one read timeout, however long the tricklers keep going.
        std::thread::sleep(Duration::from_millis(50));
        get_ok_within(addr, QUERY, Duration::from_millis(1500));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "query behind tricklers took {:?}",
            started.elapsed()
        );
        tricklers.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (i, at) in released.iter().enumerate() {
        let at = at.unwrap_or_else(|| panic!("trickler {i} still held after {TRICKLE_FOR:?}"));
        assert!(at < Duration::from_secs(2), "trickler {i} released only after {at:?}");
    }

    server.terminate();
}
