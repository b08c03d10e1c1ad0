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
                accept_loop(&listener, &shared, &sink, Conn::Tcp);
            }));
        }
        if let Some(listener) = self.unix {
            let shared = Arc::clone(&self.shared);
            let sink = Arc::clone(&handlers);
            acceptors.push(std::thread::spawn(move || {
                accept_unix_loop(&listener, &shared, &sink);
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

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    sink: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    wrap: fn(TcpStream) -> Conn,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down() {
                    return;
                }
                spawn_handler(wrap(stream), shared, sink);
            }
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
            }
        }
    }
}

fn accept_unix_loop(
    listener: &UnixListener,
    shared: &Arc<Shared>,
    sink: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down() {
                    return;
                }
                spawn_handler(Conn::Unix(stream), shared, sink);
            }
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
            }
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

/// Writes one event line and flushes it — the client streams events as
/// they happen, so every line must hit the wire immediately.
fn emit(out: &mut Conn, line: &str) -> std::io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
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
                let metrics = shared.engine.metrics_handle();
                metrics.add(metric!("server.rejected"), 1);
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let _ = emit(
                    &mut writer,
                    &format!(
                        "{{\"event\":\"error\",\"id\":{id},\"message\":\"request line \
                         too long (limit {cap} bytes)\"}}"
                    ),
                );
                return;
            }
            Ok(0) => return, // client closed
            Ok(_) => {
                let Ok(request) = String::from_utf8(std::mem::take(&mut line)) else {
                    return;
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
fn serve_request(line: &str, out: &mut Conn, shared: &Arc<Shared>) -> std::io::Result<bool> {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let metrics = shared.engine.metrics_handle();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(message) => {
            metrics.add(metric!("server.rejected"), 1);
            emit(
                out,
                &format!(
                    "{{\"event\":\"error\",\"id\":{id},\"message\":\"{}\"}}",
                    escape(&message)
                ),
            )?;
            return Ok(true);
        }
    };
    metrics.add(metric!("server.requests"), 1);
    match request.cmd {
        Command::Ping => {
            emit(out, &format!("{{\"event\":\"pong\",\"id\":{id}}}"))?;
            metrics.add(metric!("server.completed"), 1);
            Ok(true)
        }
        Command::Metrics => {
            // The metrics snapshot is itself JSON; embed it raw.
            let data = shared.metrics_json();
            emit(
                out,
                &format!("{{\"event\":\"metrics\",\"id\":{id},\"data\":{data}}}"),
            )?;
            metrics.add(metric!("server.completed"), 1);
            Ok(true)
        }
        Command::Shutdown => {
            shared.request_shutdown();
            emit(out, &format!("{{\"event\":\"shutdown\",\"id\":{id}}}"))?;
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
    out: &mut Conn,
    shared: &Arc<Shared>,
    execute: impl FnOnce(&Request, &Arc<Shared>) -> Result<exec::JobBody, String>,
) -> std::io::Result<()> {
    let metrics = shared.engine.metrics_handle();
    if let Some(design) = &request.design {
        if design.len() > shared.config.max_design_bytes {
            metrics.add(metric!("server.rejected"), 1);
            return emit(
                out,
                &format!(
                    "{{\"event\":\"error\",\"id\":{id},\"message\":\"design too large \
                     ({} bytes, limit {})\"}}",
                    design.len(),
                    shared.config.max_design_bytes
                ),
            );
        }
    }
    let (slot, depth) = match shared.admit() {
        Ok(depth) => (Slot(shared), depth),
        Err(reason) => {
            metrics.add(metric!("server.rejected"), 1);
            return emit(
                out,
                &format!(
                    "{{\"event\":\"error\",\"id\":{id},\"message\":\"{}\"}}",
                    escape(&reason)
                ),
            );
        }
    };
    emit(
        out,
        &format!("{{\"event\":\"accepted\",\"id\":{id},\"queue_depth\":{depth}}}"),
    )?;
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
            emit(
                out,
                &format!("{{\"event\":\"result\",\"id\":{id},{}}}", body.payload),
            )?;
            emit(
                out,
                &format!(
                    "{{\"event\":\"done\",\"id\":{id},\"ok\":{},\"cache\":\"{}\",\
                     \"wall_micros\":{}}}",
                    body.ok,
                    body.cache,
                    wall.as_micros()
                ),
            )?;
            metrics.add(metric!("server.completed"), 1);
        }
        Err(message) => {
            emit(
                out,
                &format!(
                    "{{\"event\":\"error\",\"id\":{id},\"message\":\"{}\"}}",
                    escape(&message)
                ),
            )?;
            metrics.add(metric!("server.failed"), 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_frees_its_slot_and_ends_in_an_error_event() {
        let server = Server::bind(ServerConfig {
            tcp: None,
            unix: None,
            ..ServerConfig::default()
        })
        .expect("a server without listeners");
        let shared = Arc::clone(&server.shared);
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
