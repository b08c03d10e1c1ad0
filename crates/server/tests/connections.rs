//! How a daemon reads its connections: a finished connection's handler
//! thread is released while the daemon runs, a request line longer than
//! the design limit allows is cut off with an `error` event instead of
//! being buffered whole, a line that is not UTF-8 gets an `error` event
//! on a connection that stays open, and a line arriving in pieces is
//! read whole.
//! Each test runs its own daemon on a Unix socket; the tests live apart
//! from `e2e.rs` so that the address-space reading below sees no other
//! test's threads.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use lobist_server::{client, Endpoint, Server, ServerConfig, ServerHandle};

/// Binds a Unix-socket daemon under a fresh directory and runs it on a
/// background thread.
fn start(
    name: &str,
    max_design_bytes: usize,
) -> (
    PathBuf,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let dir = std::env::temp_dir()
        .join("lobist-server-connections")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServerConfig {
        tcp: None,
        unix: Some(socket.clone()),
        max_design_bytes,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    (socket, handle, std::thread::spawn(move || server.run()))
}

/// This process's virtual size in KiB, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("a VmSize line");
    line.split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("a size")
}

#[cfg(target_os = "linux")]
#[test]
fn finished_connection_handlers_are_released_while_the_daemon_runs() {
    let (socket, handle, thread) = start("handlers", 1 << 20);
    let endpoint = Endpoint::Unix(socket);
    let ping = || {
        let events = client::submit(&endpoint, r#"{"cmd":"ping"}"#).expect("ping");
        assert!(events[0].contains("\"event\":\"pong\""), "{events:?}");
    };
    for _ in 0..20 {
        ping();
    }
    let before = vm_size_kib();
    // A handler thread kept until shutdown keeps its stack mapped: two
    // MiB each, so 600 of them would add over a GiB. Released handlers
    // leave at most a few malloc arenas (64 MiB reserved each) and the
    // C library's cache of stacks behind.
    for _ in 0..600 {
        ping();
    }
    let grown = vm_size_kib().saturating_sub(before);
    assert!(
        grown < 512 << 10,
        "600 sequential connections grew the address space by {grown} KiB"
    );
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn an_overlong_request_line_gets_an_error_and_its_connection_closes() {
    // The cap for a 64-byte design limit: 6 * 64 + 64 KiB.
    let cap = 6 * 64 + (1 << 16);
    let (socket, handle, thread) = start("line-cap", 64);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("a read deadline");
    // No newline: a daemon without a cap would wait for the rest of
    // the line, and the read below would hit its deadline. The daemon
    // may close before the write ends, so the write may fail.
    let _ = stream.write_all(&vec![b'x'; 2 * cap]);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("an error event before the deadline");
    assert!(line.starts_with("{\"event\":\"error\""), "{line}");
    assert!(
        line.contains(&format!("request line too long (limit {cap} bytes)")),
        "{line}"
    );
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection closes: {rest}"
    );

    // The daemon serves on and counts the rejection.
    let endpoint = Endpoint::Unix(socket);
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    assert!(metrics[0].contains("\"rejected\":1"), "{metrics:?}");
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn a_request_line_that_is_not_utf8_gets_an_error_and_the_connection_stays_open() {
    let (socket, handle, thread) = start("not-utf8", 1 << 20);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("a read deadline");
    stream
        .write_all(b"{\"cmd\":\"ping\",\"note\":\"\xff\"}\n{\"cmd\":\"ping\"}\n")
        .expect("two request lines");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("an error event");
    assert!(line.starts_with("{\"event\":\"error\""), "{line:?}");
    assert!(line.contains("request line is not UTF-8"), "{line:?}");
    line.clear();
    reader
        .read_line(&mut line)
        .expect("a reply to the next line");
    assert!(line.starts_with("{\"event\":\"pong\""), "{line:?}");

    let endpoint = Endpoint::Unix(socket);
    let metrics = client::submit(&endpoint, r#"{"cmd":"metrics"}"#).expect("metrics");
    assert!(metrics[0].contains("\"rejected\":1"), "{metrics:?}");
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn a_request_split_inside_a_character_is_read_whole() {
    let (socket, handle, thread) = start("split", 1 << 20);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("a read deadline");
    // An ignored field holding `é`, sent in two writes that split its
    // two bytes, with a pause longer than the handler's read poll.
    let request = "{\"cmd\":\"ping\",\"note\":\"\u{e9}\"}\n".as_bytes();
    let split = request
        .iter()
        .position(|&b| b == 0xC3)
        .expect("a lead byte")
        + 1;
    stream.write_all(&request[..split]).expect("first half");
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&request[split..]).expect("second half");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("a reply");
    assert!(line.starts_with("{\"event\":\"pong\""), "{line:?}");
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");
}
