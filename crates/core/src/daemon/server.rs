//! The daemon's network servers: metrics exporter + control socket.
//!
//! [`Daemon::start`] binds the servers a [`DaemonConfig`] enables and
//! runs each accept loop on its own named thread (`vcaml-metrics`,
//! `vcaml-control`); every accepted connection gets a short-lived
//! handler thread with a hard read timeout, so one stuck client can
//! never wedge the daemon, and at most [`MAX_CONNECTIONS`] are served
//! at once per listener, so idle `SUBSCRIBE` streams cannot pile up
//! threads either. Nothing here touches the data path: the
//! exporter reads atomic snapshot cells, and control verbs go through
//! the same [`MonitorHandle`] every in-process consumer uses.
//!
//! `SUBSCRIBE` upgrades its connection to a one-way JSON-lines event
//! stream backed by a bounded [`ChannelSink`]: the drain thread sheds
//! (and counts) events a slow subscriber can't keep up with instead of
//! blocking — the queue-bound/`DropOldest` contract extended to remote
//! subscribers. When the client disconnects, the sink detaches and the
//! bus prunes it.

use super::control::{parse_request, ControlError, Request, Setting, MAX_LINE_BYTES};
use super::metrics::render_openmetrics;
use crate::bus::BusHandle;
use crate::control::MonitorHandle;
use crate::sink::ChannelSink;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// How often accept loops and subscriber streams re-check the shutdown
/// flag while idle.
const POLL: Duration = Duration::from_millis(25);

/// The control socket's answer past [`MAX_CONNECTIONS`], in the
/// `ERR <code> <detail>` grammar of every refusal.
const CONTROL_BUSY: &[u8] = b"ERR busy connection limit reached, retry later\n";

/// The exporter's answer past [`MAX_CONNECTIONS`].
const SCRAPE_BUSY: &[u8] =
    b"HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

/// Event bound per `SUBSCRIBE` stream: a subscriber falling further
/// behind sheds events instead of blocking the drain, with the shed
/// count accounted on its sink.
const SUBSCRIBER_QUEUE: usize = 4096;

/// Per-connection read and write timeout: a client that connects and
/// goes silent, or stops reading what it is sent (a stalled `SUBSCRIBE`
/// stream), is disconnected after this long without progress.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Connections one listener serves at once. A connection past it is
/// answered `ERR busy <detail>` (a scrape: HTTP 503) and closed.
pub const MAX_CONNECTIONS: usize = 8;

/// Where the control socket listens.
#[derive(Debug, Clone)]
pub enum ControlEndpoint {
    /// A Unix domain socket at this path (created on start, removed on
    /// shutdown). The preferred, access-controllable endpoint.
    Unix(PathBuf),
    /// A TCP address (`"127.0.0.1:9465"`) — the fallback for hosts and
    /// tools without Unix-socket access.
    Tcp(String),
}

/// What the daemon should expose. Default: nothing bound — enable each
/// surface explicitly.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    metrics_addr: Option<String>,
    control: Option<ControlEndpoint>,
}

impl DaemonConfig {
    /// Config with no servers enabled.
    pub fn new() -> Self {
        DaemonConfig::default()
    }

    /// Enables the OpenMetrics exporter on `addr` (e.g.
    /// `"127.0.0.1:9464"`; port 0 binds an ephemeral port, reported by
    /// [`Daemon::metrics_addr`]).
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Enables the control socket on `endpoint`.
    pub fn control(mut self, endpoint: ControlEndpoint) -> Self {
        self.control = Some(endpoint);
        self
    }
}

/// Where a started control socket actually listens.
#[derive(Debug, Clone)]
pub enum BoundControl {
    /// Unix socket path.
    Unix(PathBuf),
    /// Bound TCP address (ephemeral port resolved).
    Tcp(SocketAddr),
}

/// The running servers. Dropping a `Daemon` without
/// [`Daemon::shutdown`] leaks its server threads until process exit —
/// fine for a CLI, rude in tests.
pub struct Daemon {
    stop: Arc<AtomicBool>,
    metrics_addr: Option<SocketAddr>,
    control_addr: Option<BoundControl>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Everything a control connection needs to execute verbs.
#[derive(Clone)]
struct ControlCtx {
    handle: MonitorHandle,
    bus: BusHandle,
    stop: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds and starts every server `config` enables. `handle` steers
    /// the monitored run; `bus` attaches `SUBSCRIBE` streams
    /// (take it from
    /// [`MonitorRunner::bus_handle`](crate::runner::MonitorRunner::bus_handle)
    /// before spawning the run).
    ///
    /// Fails only on bind errors (port taken, bad address, socket path
    /// not writable), and then leaves no server running and no port
    /// bound; once `Ok`, the servers outlive every client error.
    pub fn start(
        handle: MonitorHandle,
        bus: BusHandle,
        config: DaemonConfig,
    ) -> std::io::Result<Daemon> {
        // Bind every listener before any server runs: a failed bind then
        // returns with nothing spawned, and the listeners already bound
        // close as they drop.
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(bind_tcp(addr)?),
            None => None,
        };
        let control = match &config.control {
            Some(ControlEndpoint::Tcp(addr)) => {
                let (listener, bound) = bind_tcp(addr)?;
                Some((ControlListener::Tcp(listener), BoundControl::Tcp(bound)))
            }
            Some(ControlEndpoint::Unix(path)) => {
                // A stale socket file from a crashed run would fail the
                // bind; remove it first (a live daemon holding it will
                // still make the bind fail, which is the right error).
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                let bound = BoundControl::Unix(path.clone());
                Some((ControlListener::Unix(listener), bound))
            }
            None => None,
        };

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let metrics_addr = metrics.map(|(listener, bound)| {
            let handle = handle.clone();
            let serve = move |stream| serve_scrape(stream, &handle);
            threads.push(spawn_server(
                "vcaml-metrics",
                listener,
                &stop,
                SCRAPE_BUSY,
                serve,
            ));
            bound
        });
        let ctx = ControlCtx {
            handle,
            bus,
            stop: Arc::clone(&stop),
        };
        let control_addr = control.map(|(listener, bound)| {
            threads.push(match listener {
                ControlListener::Tcp(listener) => {
                    let serve = move |stream| serve_control(stream, &ctx);
                    spawn_server("vcaml-control", listener, &stop, CONTROL_BUSY, serve)
                }
                ControlListener::Unix(listener) => {
                    let serve = move |stream| serve_control(stream, &ctx);
                    spawn_server("vcaml-control", listener, &stop, CONTROL_BUSY, serve)
                }
            });
            bound
        });

        Ok(Daemon {
            stop,
            metrics_addr,
            control_addr,
            threads,
        })
    }

    /// The exporter's bound address (ephemeral ports resolved), if the
    /// exporter is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Where the control socket listens, if enabled.
    pub fn control_addr(&self) -> Option<&BoundControl> {
        self.control_addr.as_ref()
    }

    /// Stops the accept loops, joins the server threads, and removes a
    /// Unix socket file. In-flight connection handlers wind down on
    /// their own (bounded by the read timeout); an active `SUBSCRIBE`
    /// stream notices the shutdown within one poll tick, or, when its
    /// client has stopped reading, when its blocked write times out.
    pub fn shutdown(self) {
        self.stop.store(true, Relaxed);
        for thread in self.threads {
            let _ = thread.join();
        }
        if let Some(BoundControl::Unix(path)) = &self.control_addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("metrics_addr", &self.metrics_addr)
            .field("control_addr", &self.control_addr)
            .finish_non_exhaustive()
    }
}

/// A control listener [`Daemon::start`] has bound but not yet served.
enum ControlListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Binds a nonblocking TCP listener on `addr`, with the address it got
/// (ephemeral ports resolved).
fn bind_tcp(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    Ok((listener, bound))
}

/// A nonblocking listener of the daemon's: TCP or Unix.
trait Listener: Send + 'static {
    type Stream: Write + Send + 'static;

    /// The next pending connection, with [`READ_TIMEOUT`] set on its
    /// reads and writes.
    fn next_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn next_stream(&self) -> std::io::Result<TcpStream> {
        let (stream, _peer) = self.accept()?;
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
        Ok(stream)
    }
}

impl Listener for UnixListener {
    type Stream = UnixStream;

    fn next_stream(&self) -> std::io::Result<UnixStream> {
        let (stream, _peer) = self.accept()?;
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
        Ok(stream)
    }
}

/// One served connection of a listener's [`MAX_CONNECTIONS`]: the
/// count falls when it drops — when its handler thread ends, or with
/// the handler's closure when the thread could not be spawned.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// A slot, unless every one is taken.
    fn take(live: &Arc<AtomicUsize>) -> Option<Slot> {
        live.fetch_update(Relaxed, Relaxed, |n| (n < MAX_CONNECTIONS).then_some(n + 1))
            .ok()
            .map(|_| Slot(Arc::clone(live)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

/// Runs `listener`'s accept loop on a thread named `name` until `stop`
/// is set; each accepted connection is served by `serve` on a
/// short-lived thread of its own (`{name}-conn`), or, past
/// [`MAX_CONNECTIONS`] live ones, answered `busy` and closed.
fn spawn_server<L: Listener>(
    name: &'static str,
    listener: L,
    stop: &Arc<AtomicBool>,
    busy: &'static [u8],
    serve: impl Fn(L::Stream) + Clone + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let stop = Arc::clone(stop);
    let live = Arc::new(AtomicUsize::new(0));
    let accept_loop = move || {
        while !stop.load(Relaxed) {
            match listener.next_stream() {
                Ok(mut stream) => {
                    let Some(slot) = Slot::take(&live) else {
                        let _ = stream.write_all(busy);
                        continue;
                    };
                    let serve = serve.clone();
                    // A failed spawn drops the closure, and the slot in
                    // it: the connection closes and the count falls.
                    let _ = std::thread::Builder::new()
                        .name(format!("{name}-conn"))
                        .spawn(move || {
                            let _slot = slot;
                            serve(stream);
                        });
                }
                // Nothing pending (or a failed accept): wait a tick.
                Err(_) => std::thread::sleep(POLL),
            }
        }
    };
    #[expect(
        clippy::expect_used,
        reason = "spawn fails only on OS thread exhaustion; no recovery at this layer"
    )]
    std::thread::Builder::new()
        .name(name.into())
        .spawn(accept_loop)
        .expect("spawn daemon server")
}

/// One scrape: read the request head (bounded, with timeout), answer
/// with the rendered snapshot. Any read problem just drops the
/// connection — HTTP clients retry, the daemon does not care.
fn serve_scrape(mut stream: TcpStream, handle: &MonitorHandle) {
    // Read until the end of the request head (or the cap); the request
    // content is irrelevant — every path serves the one document.
    let mut head = [0u8; 1024];
    let mut filled = 0usize;
    loop {
        match stream.read(&mut head[filled..]) {
            Ok(0) => return,
            Ok(n) => {
                filled += n;
                if head[..filled].windows(4).any(|w| w == b"\r\n\r\n")
                    || head[..filled].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if filled == head.len() {
                    return; // oversized request head: drop
                }
            }
            Err(_) => return,
        }
    }
    let body = render_openmetrics(&handle.stats_snapshot());
    let response = format!(
        "HTTP/1.0 200 OK\r\n\
         Content-Type: application/openmetrics-text; version=1.0.0; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Incremental, bounded line reader over a raw stream (the same stream
/// is also written to, so a buffering reader that owns it is off the
/// table). Enforces [`MAX_LINE_BYTES`] and UTF-8, as typed errors.
struct LineReader {
    buf: Vec<u8>,
    oversized: bool,
}

enum ReadLine {
    Line(Result<String, ControlError>),
    Closed,
}

impl LineReader {
    fn new() -> Self {
        LineReader {
            buf: Vec::new(),
            oversized: false,
        }
    }

    fn next_line(&mut self, stream: &mut impl Read) -> ReadLine {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                if std::mem::take(&mut self.oversized) {
                    return ReadLine::Line(Err(ControlError::LineTooLong));
                }
                let text = &line[..line.len() - 1];
                let text = text.strip_suffix(b"\r").unwrap_or(text);
                return ReadLine::Line(match std::str::from_utf8(text) {
                    Ok(s) => Ok(s.to_string()),
                    Err(_) => Err(ControlError::NotUtf8),
                });
            }
            if self.buf.len() > MAX_LINE_BYTES {
                // Don't buffer a hostile endless line: mark it, drop
                // what we hold, and keep scanning for its newline.
                self.oversized = true;
                self.buf.clear();
            }
            let mut chunk = [0u8; 512];
            match stream.read(&mut chunk) {
                Ok(0) => return ReadLine::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                // Timeout or any transport error: treat as gone. The
                // per-connection read timeout is the idle bound.
                Err(_) => return ReadLine::Closed,
            }
        }
    }
}

/// One control connection: parse a line, execute, reply, repeat —
/// until the client leaves, the daemon stops, or the connection
/// upgrades to a `SUBSCRIBE` stream. Client errors are replies, never
/// panics.
fn serve_control<S: Read + Write>(mut stream: S, ctx: &ControlCtx) {
    let mut reader = LineReader::new();
    while !ctx.stop.load(Relaxed) {
        let line = match reader.next_line(&mut stream) {
            ReadLine::Line(line) => line,
            ReadLine::Closed => return,
        };
        let parsed = match &line {
            Ok(text) => parse_request(text),
            Err(err) => Err(err.clone()),
        };
        let request = match parsed {
            Ok(request) => request,
            Err(ControlError::Empty) => continue, // blank keep-alive
            Err(err) => {
                let fatal = matches!(err, ControlError::LineTooLong);
                if writeln!(stream, "{}", err.to_reply()).is_err() || fatal {
                    return;
                }
                continue;
            }
        };
        let ok = match request {
            Request::Stats => writeln!(stream, "OK {}", ctx.handle.stats_snapshot().to_json_line()),
            Request::Flush => {
                ctx.handle.force_flush();
                writeln!(stream, "OK")
            }
            Request::Evict(flow) => {
                ctx.handle.evict_flow(flow);
                writeln!(stream, "OK")
            }
            Request::Set(setting) => {
                match setting {
                    Setting::AlertFps(v) => ctx.handle.set_alert_fps(v),
                    Setting::AlertMinKbps(v) => ctx.handle.set_alert_min_kbps(v),
                    Setting::AlertResolutionFloor(height) => {
                        ctx.handle.set_alert_resolution_floor(height)
                    }
                }
                writeln!(stream, "OK")
            }
            Request::Stop => {
                ctx.handle.stop();
                writeln!(stream, "OK stopping")
            }
            Request::Subscribe(filter) => {
                let (sink, rx) = ChannelSink::bounded(SUBSCRIBER_QUEUE);
                ctx.bus.subscribe(filter, sink);
                if writeln!(stream, "OK subscribed").is_err() {
                    return;
                }
                // The connection is now a one-way event stream; it ends
                // when the client disconnects (write fails → the sink
                // detaches and the bus prunes it) or the daemon stops.
                let mut line = String::new();
                loop {
                    if ctx.stop.load(Relaxed) {
                        return;
                    }
                    match rx.recv_timeout(POLL) {
                        Ok(event) => {
                            line.clear();
                            event.write_json(&mut line);
                            line.push('\n');
                            if stream.write_all(line.as_bytes()).is_err() {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            let _ = stream.flush();
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            }
        };
        if ok.is_err() {
            return;
        }
        let _ = stream.flush();
    }
}
