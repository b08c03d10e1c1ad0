//! Child processes of the benchmark: the CLI, run by re-executing this
//! binary with the hidden `cli` subcommand, and a persistent daemon with
//! line-JSON clients over its Unix socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Prefix of the stderr line on which a `cli` child reports its peak
/// resident set.
const HWM_TAG: &str = "lobist-e2e vmhwm_kb ";

/// The hidden `cli` subcommand: runs `lobist_cli::run` exactly as the
/// `lobist` binary's `main` does, then reports the process's peak RSS on
/// stderr.
pub fn cli_main(args: &[String]) -> ! {
    let code = match lobist_cli::run(args) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(lobist_cli::CliError::Lint { output, denied }) => {
            print!("{output}");
            eprintln!("error: lint: {denied} finding(s) denied by policy");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    let _ = std::io::stdout().flush();
    eprintln!("{HWM_TAG}{}", vm_hwm_kb(std::process::id()).unwrap_or(0));
    std::process::exit(code)
}

/// `VmHWM` (peak resident set, KiB) of a live process.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn hwm_from_stderr(stderr: &str) -> u64 {
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix(HWM_TAG))
        .find_map(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

fn cli_command(args: &[&str]) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("cli").args(args);
    Ok(cmd)
}

/// One finished CLI process.
#[derive(Debug)]
pub struct CliRun {
    /// Everything it printed on stdout.
    pub stdout: String,
    /// Its stderr, without the peak-RSS report.
    pub stderr: String,
    /// Exit status.
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set, KiB.
    pub hwm_kb: u64,
}

/// Runs `lobist <args>` to completion with `stdin` as its input.
pub fn run_cli(args: &[&str], stdin: &str) -> std::io::Result<CliRun> {
    let t0 = Instant::now();
    let mut child = cli_command(args)?
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut input = child.stdin.take().expect("stdin is piped");
    // The CLI reads its whole path list before it prints anything, so
    // writing all of stdin first cannot deadlock on a full stdout pipe.
    let written = input.write_all(stdin.as_bytes());
    drop(input);
    let out = child.wait_with_output()?;
    let wall = t0.elapsed();
    written?;
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    Ok(CliRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        hwm_kb: hwm_from_stderr(&stderr),
        stderr: stderr
            .lines()
            .filter(|l| !l.starts_with(HWM_TAG))
            .collect::<Vec<_>>()
            .join("\n"),
        status: out.status,
        wall,
    })
}

/// A running `lobist serve` child.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    /// Spawn until the first `pong`.
    pub ready: Duration,
}

impl Daemon {
    /// Spawns `lobist serve --unix <socket> <extra...>` and waits until
    /// it answers `ping`.
    pub fn spawn(socket: &Path, extra: &[&str]) -> std::io::Result<Daemon> {
        let t0 = Instant::now();
        let socket_arg = socket.to_str().expect("socket paths are UTF-8");
        let mut args = vec!["serve", "--unix", socket_arg];
        args.extend_from_slice(extra);
        let mut child = cli_command(&args)?
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        // The daemon announces its endpoints once its listeners are bound
        // and its store is replayed.
        if stdout.read_line(&mut line)? == 0 || !line.contains("\"listening\"") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "daemon did not start: {}",
                line.trim()
            )));
        }
        let mut daemon = Daemon {
            child,
            stdout,
            socket: socket.to_path_buf(),
            ready: Duration::ZERO,
        };
        let pong = Conn::connect(&daemon.socket).and_then(|mut c| c.request("{\"cmd\":\"ping\"}"));
        match pong {
            Ok(events) if events.last().is_some_and(|e| e.contains("\"pong\"")) => {
                daemon.ready = t0.elapsed();
                Ok(daemon)
            }
            other => Err(std::io::Error::other(format!(
                "daemon did not answer ping: {other:?}"
            ))),
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::connect(&self.socket)
    }

    /// The daemon's metrics snapshot (the `data` object of the
    /// `metrics` event).
    pub fn metrics(&self) -> std::io::Result<String> {
        let events = self.connect()?.request("{\"cmd\":\"metrics\"}")?;
        let last = events.last().map(String::as_str).unwrap_or("");
        let start = last
            .find("\"data\":")
            .ok_or_else(|| std::io::Error::other(format!("no metrics in {last}")))?;
        Ok(last[start + 7..last.len() - 1].to_owned())
    }

    /// Peak resident set of the live daemon, KiB.
    pub fn hwm_kb(&self) -> u64 {
        vm_hwm_kb(self.child.id()).unwrap_or(0)
    }

    /// Graceful shutdown; fails if the daemon exits unsuccessfully.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.connect()?.request("{\"cmd\":\"shutdown\"}")?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait()?;
        let mut stderr = String::new();
        if let Some(mut err) = self.child.stderr.take() {
            let _ = err.read_to_string(&mut stderr);
        }
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "daemon exited with {status}: {}",
                stderr.trim()
            )))
        }
    }
}

/// A daemon that was not shut down (an error or a panic cut its cycle
/// short) is killed and reaped, never left running.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One persistent client connection: request lines out, event lines in.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads events up to the terminal one.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut events = Vec::with_capacity(3);
        loop {
            let mut event = String::new();
            if self.reader.read_line(&mut event)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-request",
                ));
            }
            let event = event.trim_end().to_owned();
            let name = event
                .strip_prefix("{\"event\":\"")
                .and_then(|rest| rest.split('"').next());
            let terminal = matches!(
                name,
                Some("done" | "error" | "pong" | "metrics" | "shutdown")
            );
            events.push(event);
            if terminal {
                return Ok(events);
            }
        }
    }
}
