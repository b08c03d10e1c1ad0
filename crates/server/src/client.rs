//! The client side: connect, send one request line, stream the
//! response events until the terminal one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use crate::proto::is_terminal_event;

/// Where a daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7420`.
    Tcp(String),
    /// A Unix socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Sends one request line and collects the streamed response events,
/// stopping after the terminal event (`done`, `error`, `pong`,
/// `metrics`, or `shutdown`).
///
/// `on_event` sees each line as it arrives — pass a closure that
/// prints for live streaming, or ignore it and use the returned list.
///
/// # Errors
///
/// Propagates connect and I/O failures, and reports a server that
/// closed the stream without a terminal event as `UnexpectedEof`.
pub fn submit_with<F: FnMut(&str)>(
    endpoint: &Endpoint,
    request_line: &str,
    mut on_event: F,
) -> std::io::Result<Vec<String>> {
    let mut stream: Box<dyn ReadWrite> = match endpoint {
        Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr.as_str())?),
        Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
    };
    // One write: a line sent in two pieces can wait out a delayed ACK.
    let mut line = request_line.trim_end().to_owned();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the stream before the terminal event",
            ));
        }
        let line = line.trim_end().to_owned();
        if line.is_empty() {
            continue;
        }
        on_event(&line);
        let terminal = is_terminal_event(&line);
        events.push(line);
        if terminal {
            return Ok(events);
        }
    }
}

/// [`submit_with`] without a streaming callback.
///
/// # Errors
///
/// Same as [`submit_with`].
pub fn submit(endpoint: &Endpoint, request_line: &str) -> std::io::Result<Vec<String>> {
    submit_with(endpoint, request_line, |_| {})
}

trait ReadWrite: std::io::Read + Write {}
impl<T: std::io::Read + Write> ReadWrite for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_display_as_their_address() {
        let unix = Endpoint::Unix(PathBuf::from("/a b/x.sock"));
        assert_eq!(unix.to_string(), "unix:/a b/x.sock");
        assert_eq!(Endpoint::Tcp("[::1]:80".into()).to_string(), "[::1]:80");
    }
}
