//! The daemon: listeners, admission queue, request execution.
//!
//! One [`Server`] owns one [`Engine`] (and through it the in-memory
//! cache and the durable store), and serves any number of clients over
//! TCP and/or a Unix socket. Every connection gets its own handler
//! thread, released once the connection ends; job-running requests
//! pass through an admission gate that bounds how many run concurrently
//! and how many may wait, so a burst of clients degrades to queueing
//! instead of thread explosion. A request line is read up to a cap
//! derived from `max_design_bytes`; a longer one gets an `error` event
//! and its connection is closed.
//!
//! Shutdown is graceful: the `shutdown` command (or
//! [`ServerHandle::shutdown`]) stops the acceptors, lets in-flight
//! requests finish, joins every handler, flushes the store, and removes
//! the Unix socket file.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lobist_engine::pool::panic_message;
use lobist_engine::{metric, Engine};
use lobist_store::{DiskStore, DiskStoreConfig, ResultStore};

use crate::exec;
use crate::json::escape;
use crate::proto::{parse_request, Command, Request};

/// How long a handler blocks on a read before re-checking the shutdown
/// flag. Keeps drain latency bounded without busy-waiting.
const READ_POLL: Duration = Duration::from_millis(100);

/// Server policy and wiring.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// or `None` for Unix-only.
    pub tcp: Option<String>,
    /// Unix socket path, or `None` for TCP-only.
    pub unix: Option<PathBuf>,
    /// Default engine worker budget (also the per-request ceiling when
    /// `max_request_jobs` is larger).
    pub workers: usize,
    /// Hard ceiling on any one request's `jobs` field.
    pub max_request_jobs: usize,
    /// Job-running requests allowed to execute concurrently.
    pub max_active: usize,
    /// Job-running requests allowed to wait for a slot; beyond this,
    /// requests are rejected with a terminal `error` event.
    pub max_queue: usize,
    /// Largest accepted inline design, in bytes. A request line may
    /// hold six bytes per design byte (its JSON escapes) plus 64 KiB.
    pub max_design_bytes: usize,
    /// Durable store path, or `None` for in-memory caching only.
    pub store: Option<PathBuf>,
    /// Store size budget (compaction threshold), in bytes.
    pub store_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tcp: Some("127.0.0.1:0".to_owned()),
            unix: None,
            workers: 2,
            max_request_jobs: 8,
            max_active: 2,
            max_queue: 32,
            max_design_bytes: 1 << 20,
            store: None,
            store_max_bytes: DiskStoreConfig::default().max_bytes,
        }
    }
}

/// Admission gate: a counting semaphore with queue-depth accounting.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

/// State shared by every handler thread.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) config: ServerConfig,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    gate: Gate,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and unblocks both acceptors by
    /// self-connecting (a blocking `accept` only returns on a
    /// connection).
    pub(crate) fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }

    /// Blocks until an execution slot frees up. Returns the queue depth
    /// observed at enqueue time, or `Err` with a rejection reason.
    fn admit(&self) -> Result<u64, String> {
        let metrics = self.engine.metrics_handle();
        let mut st = self.gate.state.lock().expect("gate lock");
        if self.shutting_down() {
            return Err("server is shutting down".into());
        }
        if st.waiting >= self.config.max_queue {
            return Err(format!("queue full ({} requests waiting)", st.waiting));
        }
        let depth = st.waiting as u64;
        st.waiting += 1;
        metrics.set(metric!("server.queue_depth"), st.waiting as u64);
        metrics.max(metric!("server.peak_queue_depth"), st.waiting as u64);
        while st.active >= self.config.max_active && !self.shutting_down() {
            st = self.gate.cv.wait(st).expect("gate lock");
        }
        st.waiting -= 1;
        metrics.set(metric!("server.queue_depth"), st.waiting as u64);
        if self.shutting_down() {
            self.gate.cv.notify_all();
            return Err("server is shutting down".into());
        }
        st.active += 1;
        metrics.set(metric!("server.active"), st.active as u64);
        Ok(depth)
    }

    fn release(&self) {
        let mut st = self.gate.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        self.engine.metrics_handle().set(metric!("server.active"), st.active as u64);
        drop(st);
        self.gate.cv.notify_all();
    }

    /// The full metrics JSON: engine + cache + store + server.
    pub(crate) fn metrics_json(&self) -> String {
        let mut snap = self.engine.metrics();
        snap.show_server();
        snap.to_json()
    }
}

/// An admitted request's execution slot. Dropping it frees the slot, so
/// a job that fails in any way — an error, a panic, a client gone
/// before `accepted` could be written — cannot keep it.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A bound, running daemon. Obtain with [`Server::bind`], then either
/// block in [`Server::run`] or drive it from another thread through
/// [`Server::handle`].
pub struct Server {
    shared: Arc<Shared>,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
}

/// A cloneable handle for observing and stopping a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound TCP address, if TCP is enabled.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.shared.tcp_addr
    }

    /// The Unix socket path, if enabled.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.shared.unix_path.as_ref()
    }

    /// Requests a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// The current metrics JSON (engine + cache + store + server).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }
}

impl Server {
    /// Binds the listeners and builds the engine (opening the store if
    /// configured). No client is served until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates listener bind and store open failures.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let tcp = match &config.tcp {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let unix = match &config.unix {
            Some(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        let mut engine = Engine::new(config.workers.max(1));
        if let Some(path) = &config.store {
            let store: Arc<dyn ResultStore> = Arc::new(DiskStore::open(
                path,
                DiskStoreConfig {
                    max_bytes: config.store_max_bytes,
                },
            )?);
            engine = engine.with_store(store);
        }
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let unix_path = config.unix.clone();
        Ok(Server {
            shared: Arc::new(Shared {
                engine,
                config,
                shutdown: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
                gate: Gate::default(),
                tcp_addr,
                unix_path,
            }),
            tcp,
            unix,
        })
    }

    /// A handle for observing and stopping the server from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound TCP address, if TCP is enabled (useful with an
    /// ephemeral `:0` bind).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.shared.tcp_addr
    }

    /// The Unix socket path, if enabled.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.shared.unix_path.as_ref()
    }

    /// Serves clients until a shutdown is requested, then drains:
    /// joins every acceptor and handler, flushes the store, removes the
    /// Unix socket file.
    ///
    /// # Errors
    ///
    /// Propagates the store's flush error; listener-level accept errors
    /// on a live server are retried, not fatal.
    pub fn run(self) -> std::io::Result<()> {
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let mut acceptors = Vec::new();
        if let Some(listener) = self.tcp {
            let shared = Arc::clone(&self.shared);
            let sink = Arc::clone(&handlers);
            acceptors.push(std::thread::spawn(move || {
                // Without NODELAY, Nagle holds a reply burst while an
                // earlier one waits for its (delayed) ACK: 40 ms per
                // request on a kept-alive connection.
                let accept = || {
                    let (stream, _) = listener.accept()?;
                    let _ = stream.set_nodelay(true);
                    Ok(Conn::Tcp(stream))
                };
                accept_loop(accept, &shared, &sink);
            }));
        }
        if let Some(listener) = self.unix {
            let shared = Arc::clone(&self.shared);
            let sink = Arc::clone(&handlers);
            acceptors.push(std::thread::spawn(move || {
                let accept = || Ok(Conn::Unix(listener.accept()?.0));
                accept_loop(accept, &shared, &sink);
            }));
        }
        for a in acceptors {
            let _ = a.join();
        }
        // Acceptors only exit on shutdown; now drain the handlers (they
        // observe the flag within READ_POLL and finish their in-flight
        // request first).
        let drained = std::mem::take(&mut *handlers.lock().expect("handler list"));
        for h in drained {
            let _ = h.join();
        }
        if let Some(path) = &self.shared.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.engine.flush_store()
    }
}

/// Accepts connections until shutdown, one handler thread each.
/// `accept` wraps an accepted stream as a [`Conn`]; an accept error on
/// a live server is retried.
fn accept_loop(
    accept: impl Fn() -> std::io::Result<Conn>,
    shared: &Arc<Shared>,
    sink: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let accepted = accept();
        if shared.shutting_down() {
            return;
        }
        if let Ok(conn) = accepted {
            spawn_handler(conn, shared, sink);
        }
    }
}

fn spawn_handler(
    conn: Conn,
    shared: &Arc<Shared>,
    sink: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || handle_connection(conn, &shared));
    let mut handlers = sink.lock().expect("handler list");
    // Join the handlers that have finished, which releases their stacks
    // now; only live ones wait for the shutdown drain.
    for finished in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = finished.join();
    }
    handlers.push(handle);
}

/// One client connection over either transport.
pub(crate) enum Conn {
    /// TCP client.
    Tcp(TcpStream),
    /// Unix-socket client.
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Writes one burst of event lines, each with its newline, in one
/// `write` and flushes it. A reply is at most two bursts: `accepted` on
/// admission, then the terminal events together, so a client wakes once
/// per burst rather than once per line.
fn emit(out: &mut impl Write, lines: &[&str]) -> std::io::Result<()> {
    let mut burst = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        burst.extend_from_slice(line.as_bytes());
        burst.push(b'\n');
    }
    out.write_all(&burst)?;
    out.flush()
}

/// The terminal `error` event for request `id`.
fn error_event(id: u64, message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"id\":{id},\"message\":\"{}\"}}",
        escape(message)
    )
}

/// Answers a request line that is not served with one `error` event
/// under a fresh id, and counts it as rejected.
fn reject(out: &mut impl Write, shared: &Shared, message: &str) -> std::io::Result<()> {
    shared
        .engine
        .metrics_handle()
        .add(metric!("server.rejected"), 1);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    emit(out, &[&error_event(id, message)])
}

/// The longest request line a handler reads: a design of
/// `max_design_bytes`, each byte JSON-escaped to at most six, plus
/// 64 KiB for the other fields.
fn line_cap(config: &ServerConfig) -> usize {
    let design = config.max_design_bytes.saturating_mul(6);
    design.saturating_add(1 << 16)
}

fn handle_connection(conn: Conn, shared: &Arc<Shared>) {
    let Ok(mut writer) = conn.try_clone() else {
        return;
    };
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(conn);
    let cap = line_cap(&shared.config);
    let mut line = Vec::new();
    loop {
        // Reading one byte past the cap tells an overlong line apart.
        let room = (cap - line.len()).saturating_add(1) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(_) if line.len() > cap => {
                let message = format!("request line too long (limit {cap} bytes)");
                let _ = reject(&mut writer, shared, &message);
                return;
            }
            Ok(0) => return, // client closed
            Ok(_) => {
                let Ok(request) = String::from_utf8(std::mem::take(&mut line)) else {
                    if reject(&mut writer, shared, "request line is not UTF-8").is_err() {
                        return;
                    }
                    continue;
                };
                let request = request.trim();
                if request.is_empty() {
                    continue;
                }
                match serve_request(request, &mut writer, shared) {
                    Ok(keep_open) if keep_open => {}
                    _ => return,
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Timeout with a partial line keeps `line` accumulating.
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Serves one request line. Returns `Ok(false)` when the connection
/// should close (after a shutdown request).
fn serve_request(line: &str, out: &mut impl Write, shared: &Arc<Shared>) -> std::io::Result<bool> {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let metrics = shared.engine.metrics_handle();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(message) => {
            metrics.add(metric!("server.rejected"), 1);
            emit(out, &[&error_event(id, &message)])?;
            return Ok(true);
        }
    };
    metrics.add(metric!("server.requests"), 1);
    match request.cmd {
        Command::Ping => {
            emit(out, &[&format!("{{\"event\":\"pong\",\"id\":{id}}}")])?;
            metrics.add(metric!("server.completed"), 1);
            Ok(true)
        }
        Command::Metrics => {
            // The metrics snapshot is itself JSON; embed it raw.
            let data = shared.metrics_json();
            let line = format!("{{\"event\":\"metrics\",\"id\":{id},\"data\":{data}}}");
            emit(out, &[&line])?;
            metrics.add(metric!("server.completed"), 1);
            Ok(true)
        }
        Command::Shutdown => {
            shared.request_shutdown();
            emit(out, &[&format!("{{\"event\":\"shutdown\",\"id\":{id}}}")])?;
            metrics.add(metric!("server.completed"), 1);
            Ok(false)
        }
        _ => {
            serve_job(&request, id, out, shared, exec::execute)?;
            Ok(true)
        }
    }
}

/// Admits and runs one job request through `execute`. A panic in it is
/// caught and answered like any failure: an `error` event (`job
/// panicked: …`), counted in `server.failed`.
fn serve_job(
    request: &Request,
    id: u64,
    out: &mut impl Write,
    shared: &Arc<Shared>,
    execute: impl FnOnce(&Request, &Arc<Shared>) -> Result<exec::JobBody, String>,
) -> std::io::Result<()> {
    let metrics = shared.engine.metrics_handle();
    if let Some(design) = &request.design {
        if design.len() > shared.config.max_design_bytes {
            metrics.add(metric!("server.rejected"), 1);
            let message = format!(
                "design too large ({} bytes, limit {})",
                design.len(),
                shared.config.max_design_bytes
            );
            return emit(out, &[&error_event(id, &message)]);
        }
    }
    let (slot, depth) = match shared.admit() {
        Ok(depth) => (Slot(shared), depth),
        Err(reason) => {
            metrics.add(metric!("server.rejected"), 1);
            return emit(out, &[&error_event(id, &reason)]);
        }
    };
    // Written before the job runs: a client learns of its admission
    // when it happens, not with the result.
    let accepted = format!("{{\"event\":\"accepted\",\"id\":{id},\"queue_depth\":{depth}}}");
    emit(out, &[&accepted])?;
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(request, shared)))
        .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(panic))));
    let wall = start.elapsed();
    drop(slot);
    metrics.add_time(metric!("server.wall_micros"), wall);
    metrics.record(metric!("server.request_micros_log2"), wall);
    match outcome {
        Ok(body) => {
            // The `result` event is rendered purely from the job's
            // result, so a replay served from the store is
            // byte-identical. Timing and provenance live on `done`.
            let result = format!("{{\"event\":\"result\",\"id\":{id},{}}}", body.payload);
            let done = format!(
                "{{\"event\":\"done\",\"id\":{id},\"ok\":{},\"cache\":\"{}\",\
                 \"wall_micros\":{}}}",
                body.ok,
                body.cache,
                wall.as_micros()
            );
            emit(out, &[&result, &done])?;
            metrics.add(metric!("server.completed"), 1);
        }
        Err(message) => {
            emit(out, &[&error_event(id, &message)])?;
            metrics.add(metric!("server.failed"), 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::json::Json;
    use lobist_engine::spec::FIELDS;

    const SYNTH: &str =
        r#"{"cmd":"synth","design":"input a b\ny = a + b\noutput y\n","modules":"1+"}"#;

    /// The shared state of a server without listeners.
    fn listenerless() -> Arc<Shared> {
        let server = Server::bind(ServerConfig {
            tcp: None,
            unix: None,
            ..ServerConfig::default()
        })
        .expect("a server without listeners");
        server.shared
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .push(String::from_utf8(buf.to_vec()).expect("events are UTF-8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `true` if `write` is exactly one event line named `event`.
    fn one_event(write: &str, event: &str) -> bool {
        write.starts_with(&format!("{{\"event\":\"{event}\","))
            && write.find('\n') == Some(write.len() - 1)
    }

    #[test]
    fn each_reply_burst_is_one_write() {
        let shared = listenerless();
        let serve = |line: &str| {
            let mut out = Writes::default();
            serve_request(line, &mut out, &shared).expect("a recorder never fails");
            out.0
        };
        // A job: `accepted` on admission, then `result` and `done`
        // together.
        let synth = serve(SYNTH);
        assert_eq!(synth.len(), 2, "{synth:?}");
        assert!(one_event(&synth[0], "accepted"), "{synth:?}");
        let (result, done) = synth[1].split_once('\n').expect("two lines");
        assert!(one_event(&format!("{result}\n"), "result"), "{synth:?}");
        assert!(one_event(done, "done"), "{synth:?}");
        // A failing job: `accepted`, then `error`.
        let request = parse_request(SYNTH).expect("a synth request");
        let mut out = Writes::default();
        serve_job(&request, 7, &mut out, &shared, |_, _| {
            panic!("injected fault")
        })
        .expect("a recorder never fails");
        assert_eq!(out.0.len(), 2, "{:?}", out.0);
        assert!(one_event(&out.0[0], "accepted"), "{:?}", out.0);
        assert_eq!(
            out.0[1],
            "{\"event\":\"error\",\"id\":7,\"message\":\"job panicked: injected fault\"}\n"
        );
        // Everything else is one event in one write; shutdown goes last.
        for (line, event) in [
            (r#"{"cmd":"ping"}"#, "pong"),
            (r#"{"cmd":"metrics"}"#, "metrics"),
            (r#"{"cmd":"synth","width":1}"#, "error"),
            ("{\"cmd\":", "error"),
            (r#"{"cmd":"shutdown"}"#, "shutdown"),
        ] {
            let reply = serve(line);
            assert!(
                reply.len() == 1 && one_event(&reply[0], event),
                "{line}: {reply:?}"
            );
        }
    }

    /// Valid request lines of every command as `(key, JSON value)`
    /// fields, each job small enough to run in milliseconds.
    fn valid_requests() -> Vec<Vec<(String, String)>> {
        let add = format!("\"{}\"", escape("input a b\ny = a + b\noutput y\n"));
        let mac = format!(
            "\"{}\"",
            escape("input a b c\nm = a * b @ 1\ny = m + c @ 2\noutput y\n")
        );
        let requests: [&[(&str, &str)]; 10] = [
            &[
                ("cmd", "\"synth\""),
                ("design", &add),
                ("modules", "\"1+\""),
            ],
            &[
                ("cmd", "\"synth\""),
                ("design", &mac),
                ("modules", "\"1+,1*\""),
                ("flow", "\"traditional\""),
                ("width", "16"),
                ("port_inputs", "false"),
                ("repair", "true"),
                ("jobs", "2"),
            ],
            &[
                ("cmd", "\"explore\""),
                ("design", &mac),
                ("candidates", "\"1+,1*;2+,1*\""),
            ],
            &[
                ("cmd", "\"anneal\""),
                ("design", &mac),
                ("modules", "\"1+,1*\""),
                ("iterations", "20"),
                ("seed", "7"),
                ("chains", "2"),
            ],
            &[
                ("cmd", "\"faultsim\""),
                ("design", &add),
                ("modules", "\"1+\""),
                ("width", "4"),
            ],
            &[
                ("cmd", "\"lint\""),
                ("design", &mac),
                ("modules", "\"1+,1*\""),
            ],
            &[
                ("cmd", "\"analyze\""),
                ("design", &add),
                ("modules", "\"1+\""),
            ],
            &[("cmd", "\"ping\"")],
            &[("cmd", "\"metrics\"")],
            &[("cmd", "\"shutdown\"")],
        ];
        requests
            .iter()
            .map(|fields| {
                fields
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                    .collect()
            })
            .collect()
    }

    /// Escapes that no JSON string may hold, and a trailing backslash
    /// that swallows the closing quote.
    const BAD_ESCAPES: [&str; 7] = [
        "\\q", "\\u12", "\\uD800", "\\uDC00", "\\u00ZZ", "\\x41", "\\",
    ];

    /// Numbers a field cannot hold, or can hold but only just.
    const BIG_NUMBERS: [&str; 10] = [
        "18446744073709551616",
        "99999999999999999999999999",
        "4294967296",
        "4294967295",
        "1e400",
        "-1",
        "1.5",
        "257",
        "64",
        "0",
    ];

    /// Applies field mutation `kind` (2..6), drawing positions from `a`
    /// and `b`: a dropped key, a duplicated key, a bad escape in a
    /// string value, or an oversized number in a job field.
    fn mutate_fields(fields: &mut Vec<(String, String)>, kind: usize, a: u64, b: u64) {
        let n = fields.len();
        match kind {
            2 if n > 0 => {
                fields.remove(pick(n, a));
            }
            3 if n > 0 => {
                let (key, _) = fields[pick(n, a)].clone();
                let (_, value) = fields[pick(n, b)].clone();
                fields.insert(pick(n + 1, a ^ b), (key, value));
            }
            4 => {
                let strings: Vec<usize> =
                    (0..n).filter(|&i| fields[i].1.starts_with('"')).collect();
                if let Some(&i) = strings.get(pick(strings.len(), a)) {
                    let value = &mut fields[i].1;
                    let at = 1 + pick(value.len() - 1, b);
                    value.insert_str(at, BAD_ESCAPES[pick(BAD_ESCAPES.len(), a >> 32)]);
                }
            }
            5 => {
                let key = FIELDS[pick(FIELDS.len(), a)].key.to_owned();
                let value = BIG_NUMBERS[pick(BIG_NUMBERS.len(), b)].to_owned();
                match fields.iter_mut().find(|(k, _)| *k == key) {
                    Some(field) => field.1 = value,
                    None => fields.push((key, value)),
                }
            }
            _ => {}
        }
    }

    /// Applies text mutation `kind` (0..2) to a rendered line: a bit
    /// flip that keeps the byte ASCII, or a truncation.
    fn mutate_text(text: &mut String, kind: usize, a: u64, b: u64) {
        match kind {
            0 if !text.is_empty() => {
                let mut bytes = std::mem::take(text).into_bytes();
                let at = pick(bytes.len(), a);
                bytes[at] ^= 1 << (b % 7);
                *text = String::from_utf8(bytes).expect("ASCII stays ASCII");
            }
            1 => text.truncate(pick(text.len() + 1, a)),
            _ => {}
        }
    }

    /// A position below `n` (or 0 when `n` is 0) drawn from `r`.
    fn pick(n: usize, r: u64) -> usize {
        (r % n.max(1) as u64) as usize
    }

    fn render(fields: &[(String, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// A request that parses but asks for more work than a test should
    /// run: a long anneal, or fault simulation past width 12 (whose
    /// pattern sets grow as `2^width`).
    fn too_big(request: &Request) -> bool {
        match request.cmd {
            Command::Anneal => {
                request.spec.iterations.unwrap_or(400) > 100 || request.spec.chains.unwrap_or(1) > 2
            }
            Command::FaultSim => request.spec.width > 12,
            _ => false,
        }
    }

    fn mutation_server() -> &'static Arc<Shared> {
        static SHARED: std::sync::OnceLock<Arc<Shared>> = std::sync::OnceLock::new();
        SHARED.get_or_init(listenerless)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Mutated request lines never panic the daemon: each gets a
        /// reply of JSON lines ending in exactly one terminal event, and
        /// no execution slot stays taken.
        #[test]
        fn mutated_request_lines_end_in_one_terminal_event(
            base in 0usize..10,
            mutations in prop::collection::vec((0usize..6, any::<u64>(), any::<u64>()), 1..4),
        ) {
            let mut fields = valid_requests().swap_remove(base);
            for &(kind, a, b) in &mutations {
                mutate_fields(&mut fields, kind, a, b);
            }
            let mut text = render(&fields);
            for &(kind, a, b) in &mutations {
                mutate_text(&mut text, kind, a, b);
            }
            // Whatever a line holds, parsing it never panics; a job too
            // big to run here stops at the parse.
            if parse_request(&text).is_ok_and(|request| too_big(&request)) {
                return Ok(());
            }
            let shared = mutation_server();
            let mut out = Writes::default();
            serve_request(&text, &mut out, shared).expect("a recorder never fails");
            if shared.shutting_down() {
                shared.shutdown.store(false, Ordering::SeqCst);
            }
            let reply = out.0.concat();
            prop_assert!(reply.ends_with('\n'), "{text}: {reply:?}");
            prop_assert!(!reply.contains("job panicked"), "{text}: {reply:?}");
            let mut terminal = Vec::new();
            for line in reply.lines() {
                let event = Json::parse(line).map_err(|e| {
                    TestCaseError::fail(format!("{text}: {line} does not parse: {e}"))
                })?;
                let name = event.get("event").and_then(Json::as_str).unwrap_or_default();
                terminal.push(matches!(name, "done" | "error" | "pong" | "metrics" | "shutdown"));
            }
            prop_assert_eq!(terminal.iter().filter(|&&t| t).count(), 1, "{text}: {reply:?}");
            prop_assert!(terminal.last() == Some(&true), "{text}: {reply:?}");
            let gate = shared.gate.state.lock().expect("gate lock");
            prop_assert!(gate.active == 0 && gate.waiting == 0, "{text}: a slot stays taken");
        }
    }

    #[test]
    fn a_panicking_job_frees_its_slot_and_ends_in_an_error_event() {
        let shared = listenerless();
        let (ours, theirs) = UnixStream::pair().expect("a socket pair");
        let request = parse_request(
            r#"{"cmd":"synth","design":"input a b\ny = a + b\noutput y\n","modules":"1+"}"#,
        )
        .expect("a synth request");
        // More panics than execution slots: a leaked slot would block
        // the later requests in `admit` forever.
        let panics = shared.config.max_active + 1;
        let (done, finished) = std::sync::mpsc::channel();
        let client = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut out = Conn::Unix(ours);
                for id in 0..panics as u64 {
                    serve_job(&request, id, &mut out, &shared, |_, _| panic!("injected fault"))
                        .expect("events written");
                }
                serve_job(&request, 99, &mut out, &shared, exec::execute).expect("events written");
                done.send(()).expect("the test is waiting");
            })
        };
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("no request waits on a leaked slot");
        client.join().expect("the handler thread returns");
        let events: Vec<String> = BufReader::new(theirs)
            .lines()
            .collect::<Result<_, _>>()
            .expect("events read");
        for id in 0..panics {
            assert!(events[2 * id].starts_with(r#"{"event":"accepted""#), "{events:?}");
            assert_eq!(
                events[2 * id + 1],
                format!(r#"{{"event":"error","id":{id},"message":"job panicked: injected fault"}}"#)
            );
        }
        let tail: Vec<&str> = events[2 * panics..].iter().map(String::as_str).collect();
        assert!(tail[1].starts_with(r#"{"event":"result","id":99,"#), "{tail:?}");
        assert!(tail[2].starts_with(r#"{"event":"done","id":99,"ok":true"#), "{tail:?}");
        assert_eq!(shared.gate.state.lock().expect("gate lock").active, 0);
        let snap = shared.engine.metrics();
        assert_eq!(snap.get(metric!("server.failed")), panics as u64);
    }
}
