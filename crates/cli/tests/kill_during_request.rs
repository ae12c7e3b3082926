//! `SIGTERM` during an in-flight request must not truncate the response.
//!
//! Drives the real `bed` binary: starts `bed serve` on port 0, opens a
//! connection, stalls the request halfway through its headers, delivers
//! `SIGTERM`, then completes the request — the full `200` response must
//! still arrive, and the process must exit cleanly with its summary line.
//! (The serve loop joins every in-flight connection thread before the
//! listener closes; this pins that from outside the process.)

#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn sigterm_mid_request_finishes_the_response() {
    let dir = std::env::temp_dir().join("bed-kill-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("stream.tsv");
    let mut text = String::new();
    for t in 0..300u64 {
        text.push_str(&format!("{}\t{t}\n", t % 8));
    }
    std::fs::write(&input, text).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_bed"))
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
        .expect("spawn bed serve");

    // The bound address is printed before serving starts.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_else(|| panic!("no listen address in {line:?}"))
        .to_string();

    // Open a request and stall halfway through the headers, so the
    // connection handler is mid-read when the signal lands.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: bed\r\n").unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill failed");
    std::thread::sleep(Duration::from_millis(150));

    // Complete the request only after the shutdown was requested.
    write!(stream, "\r\n").unwrap();
    stream.flush().unwrap();

    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200"), "truncated response: {response:?}");
    assert!(response.ends_with("ok\n"), "truncated body: {response:?}");

    let status = child.wait().expect("wait for bed serve");
    assert!(status.success(), "bed serve exited with {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("served"), "missing summary: {rest:?}");
}
