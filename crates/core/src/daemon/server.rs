//! The daemon's network servers: metrics exporter + control socket.
//!
//! [`Daemon::start`] binds the servers a [`DaemonConfig`] enables and
//! runs each accept loop on its own named thread (`vcaml-metrics`,
//! `vcaml-control`); every accepted connection gets a short-lived
//! handler thread with a hard read timeout, so one stuck client can
//! never wedge the daemon. Nothing here touches the data path: the
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
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;
use vcaml_rtp::VcaKind;
use vcaml_vcasim::VcaProfile;

/// How often accept loops and subscriber streams re-check the shutdown
/// flag while idle.
const POLL: Duration = Duration::from_millis(25);

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
    subscriber_queue: usize,
    read_timeout: Duration,
    ladder: Option<VcaProfile>,
}

impl DaemonConfig {
    /// Config with no servers enabled.
    pub fn new() -> Self {
        DaemonConfig {
            metrics_addr: None,
            control: None,
            subscriber_queue: 4096,
            read_timeout: Duration::from_secs(5),
            ladder: None,
        }
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

    /// Event bound per `SUBSCRIBE` stream (default 4096): a subscriber
    /// falling further behind sheds events instead of blocking the
    /// drain, with the shed count accounted on its sink.
    pub fn subscriber_queue(mut self, capacity: usize) -> Self {
        self.subscriber_queue = capacity.max(1);
        self
    }

    /// Per-connection read timeout (default 5 s): a control client that
    /// connects and goes silent is disconnected after this long.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// The bitrate ladder `SET alert_resolution_floor` maps heights
    /// through (default: the Teams lab profile).
    pub fn ladder(mut self, ladder: VcaProfile) -> Self {
        self.ladder = Some(ladder);
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
    ladder: Arc<VcaProfile>,
    subscriber_queue: usize,
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
    /// not writable); once `Ok`, the servers outlive every client
    /// error.
    pub fn start(
        handle: MonitorHandle,
        bus: BusHandle,
        config: DaemonConfig,
    ) -> std::io::Result<Daemon> {
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = ControlCtx {
            handle: handle.clone(),
            bus,
            ladder: Arc::new(
                config
                    .ladder
                    .unwrap_or_else(|| VcaProfile::lab(VcaKind::Teams)),
            ),
            subscriber_queue: if config.subscriber_queue == 0 {
                4096
            } else {
                config.subscriber_queue
            },
            stop: Arc::clone(&stop),
        };
        let read_timeout = if config.read_timeout.is_zero() {
            Duration::from_secs(5)
        } else {
            config.read_timeout
        };
        let mut threads = Vec::new();

        let metrics_addr = match &config.metrics_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let bound = listener.local_addr()?;
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                threads.push(
                    std::thread::Builder::new()
                        .name("vcaml-metrics".into())
                        .spawn(move || metrics_loop(listener, handle, stop, read_timeout))
                        .expect("spawn metrics server"), // lint: allow(no-unwrap-in-lib) -- spawn fails only on OS thread exhaustion; no recovery at this layer
                );
                Some(bound)
            }
            None => None,
        };

        let control_addr = match &config.control {
            Some(ControlEndpoint::Tcp(addr)) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let bound = listener.local_addr()?;
                let ctx = ctx.clone();
                let stop = Arc::clone(&stop);
                threads.push(
                    std::thread::Builder::new()
                        .name("vcaml-control".into())
                        .spawn(move || control_tcp_loop(listener, ctx, stop, read_timeout))
                        .expect("spawn control server"), // lint: allow(no-unwrap-in-lib) -- spawn fails only on OS thread exhaustion; no recovery at this layer
                );
                Some(BoundControl::Tcp(bound))
            }
            Some(ControlEndpoint::Unix(path)) => {
                // A stale socket file from a crashed run would fail the
                // bind; remove it first (a live daemon holding it will
                // still make the bind fail, which is the right error).
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                let ctx = ctx.clone();
                let stop = Arc::clone(&stop);
                threads.push(
                    std::thread::Builder::new()
                        .name("vcaml-control".into())
                        .spawn(move || control_unix_loop(listener, ctx, stop, read_timeout))
                        .expect("spawn control server"), // lint: allow(no-unwrap-in-lib) -- spawn fails only on OS thread exhaustion; no recovery at this layer
                );
                Some(BoundControl::Unix(path.clone()))
            }
            None => None,
        };

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
    /// their own (bounded by the read timeout); active `SUBSCRIBE`
    /// streams notice the shutdown within one poll tick.
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

/// Accept loop of the metrics exporter: HTTP/1.0, one response per
/// connection, close after write.
fn metrics_loop(
    listener: TcpListener,
    handle: MonitorHandle,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
) {
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let _ = std::thread::Builder::new()
                    .name("vcaml-metrics-conn".into())
                    .spawn(move || serve_scrape(stream, &handle, read_timeout));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One scrape: read the request head (bounded, with timeout), answer
/// with the rendered snapshot. Any read problem just drops the
/// connection — HTTP clients retry, the daemon does not care.
fn serve_scrape(mut stream: TcpStream, handle: &MonitorHandle, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
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

fn control_tcp_loop(
    listener: TcpListener,
    ctx: ControlCtx,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
) {
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(read_timeout));
                let ctx = ctx.clone();
                let _ = std::thread::Builder::new()
                    .name("vcaml-control-conn".into())
                    .spawn(move || serve_control(stream, &ctx));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn control_unix_loop(
    listener: UnixListener,
    ctx: ControlCtx,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
) {
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(read_timeout));
                let ctx = ctx.clone();
                let _ = std::thread::Builder::new()
                    .name("vcaml-control-conn".into())
                    .spawn(move || serve_control(stream, &ctx));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
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
                        ctx.handle.set_alert_resolution_floor(height, &ctx.ladder)
                    }
                }
                writeln!(stream, "OK")
            }
            Request::Stop => {
                ctx.handle.stop();
                writeln!(stream, "OK stopping")
            }
            Request::Subscribe(filter) => {
                let (sink, rx) = ChannelSink::bounded(ctx.subscriber_queue);
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
