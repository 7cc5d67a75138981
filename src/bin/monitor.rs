//! `monitor` — passive VCA QoE monitoring as a command-line tool.
//!
//! A thin shell over the crate's pluggable I/O layer and control plane:
//! the feed is a `PacketSource` (pcap file or synthetic multi-call
//! generator), the output is a composition of `EventSink` subscribers
//! (JSON lines, frame-rate alerts, end-of-run per-flow summary) on the
//! runner's event bus, and `MonitorRunner::spawn` supervises the run in
//! the background while the main thread watches it through a
//! `MonitorHandle` (periodic `--stats-every` snapshots to stderr,
//! Ctrl-C-style graceful stop readiness).
//!
//! ```sh
//! cargo run --release --bin monitor -- --synthetic 10 --calls 3
//! cargo run --release --bin monitor -- --pcap capture.pcap --vca meet
//! cargo run --release --bin monitor -- --synthetic 10 --alert-fps 24
//! # Parallel ingestion with bounded backpressure:
//! cargo run --release --bin monitor -- --synthetic 30 --calls 16 \
//!     --threads auto --queue-cap 4096 --overflow drop-oldest
//! # Alerts and a per-flow rollup only, no per-window JSON, with a live
//! # stats snapshot to stderr every 2 seconds:
//! cargo run --release --bin monitor -- --synthetic 10 --quiet \
//!     --alert-fps 24 --summary --stats-every 2
//! # Long-running service: real-time paced feed, OpenMetrics exporter,
//! # line-protocol control socket (STATS/FLUSH/EVICT/SET/SUBSCRIBE/STOP):
//! cargo run --release --bin monitor -- --synthetic 600 --pace 1 --quiet \
//!     --daemon --metrics-addr 127.0.0.1:9464 --control-socket /tmp/vcaml.sock
//! ```

use std::io::{BufWriter, Stdout, Write};
use std::sync::{Arc, Mutex};
use vcaml_suite::netpkt::Timestamp;
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::daemon::{BoundControl, ControlEndpoint, Daemon, DaemonConfig};
use vcaml_suite::vcaml::{
    AlertSink, EstimationMethod, JsonLinesSink, Method, MonitorBuilder, MonitorRunner,
    OverflowPolicy, Paced, PcapFileSource, SummarySink, SyntheticSource,
};
use vcaml_suite::vcasim::VcaProfile;

/// One block-buffered stdout shared by every sink. Subscribers run on
/// the runner's drain thread — which `spawn()` moves to the supervisor
/// thread — so the handle must be `Send`; the mutex is uncontended
/// (one drain thread) and the block buffering is what saves the
/// per-line flush.
#[derive(Clone)]
struct SharedStdout(Arc<Mutex<BufWriter<Stdout>>>);

impl SharedStdout {
    fn new() -> Self {
        SharedStdout(Arc::new(Mutex::new(BufWriter::new(std::io::stdout()))))
    }
}

impl Write for SharedStdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("stdout poisoned").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("stdout poisoned").flush()
    }
}

/// SIGINT/SIGTERM → graceful-stop bridge. The handler does the only
/// async-signal-safe thing — one atomic store — and the watch loop in
/// `main` turns the flag into `MonitorHandle::stop()`: ingest ports
/// stop at the next packet boundary, in-flight packets flush, flows
/// seal, and every event produced before the stop still reaches the
/// sinks (a prefix-exact run, not a torn one). Raw `signal(2)` via an
/// `extern` declaration: the workspace is dependency-free by policy,
/// so no `libc`/`signal-hook` crate.
#[cfg(unix)]
mod signal_bridge {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod signal_bridge {
    pub fn install() {}

    pub fn stop_requested() -> bool {
        false
    }
}

struct Args {
    pcap: Option<String>,
    synthetic_secs: Option<u32>,
    calls: usize,
    vca: VcaKind,
    method: EstimationMethod,
    window_secs: u32,
    idle_timeout_secs: i64,
    alert_fps: Option<f64>,
    flush_after: Option<u32>,
    /// `None` = auto (`--threads auto`, sized from the machine).
    threads: Option<usize>,
    queue_cap: Option<usize>,
    overflow: OverflowPolicy,
    quiet: bool,
    summary: bool,
    /// Print a `MonitorHandle` stats snapshot to stderr this often.
    stats_every: Option<u64>,
    /// Run as a service: bind the metrics exporter and control socket.
    daemon: bool,
    /// Exporter bind address (daemon mode; default 127.0.0.1:9464).
    metrics_addr: Option<String>,
    /// Control socket as a Unix path (daemon mode; preferred).
    control_socket: Option<String>,
    /// Control socket as a TCP address (daemon mode fallback;
    /// default 127.0.0.1:9465 when no Unix path is given).
    control_addr: Option<String>,
    /// Replay the feed in real time at this speed multiple (e.g. 1 =
    /// wall clock, 10 = 10x). Off = as fast as possible.
    pace: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: monitor (--pcap <file> | --synthetic <secs>) [options]\n\
         \n\
         options:\n\
           --calls <n>          synthetic concurrent calls (default 2)\n\
           --vca <teams|meet|webex>      (default teams)\n\
           --method <auto|auto-ml|ipudp-heuristic|ipudp-ml|rtp-heuristic|rtp-ml>\n\
                                (default auto)\n\
           --window <secs>      prediction window length (default 1)\n\
           --idle-timeout <secs> evict flows idle this long (default 60)\n\
           --flush-after <pkts> emit provisional windows after this many\n\
                                packets without a final one (default off)\n\
           --alert-fps <fps>    emit an alert line when a window's frame\n\
                                rate falls below this\n\
           --threads <n|auto>   shard worker threads (default 1 = inline;\n\
                                auto = one per available core)\n\
           --queue-cap <n>      bound on the event queue and per-shard\n\
                                ingest channels, in events (default 65536)\n\
           --overflow <block|drop-oldest>\n\
                                full-queue policy: block producers, or\n\
                                drop the oldest events and report them\n\
                                with a dropped marker (default block)\n\
           --quiet              suppress per-event JSON lines (alerts and\n\
                                the summary still print)\n\
           --summary            print an end-of-run per-flow rollup table\n\
           --stats-every <secs> print a live stats snapshot (JSON, type\n\
                                \"stats\") to stderr every <secs> seconds\n\
                                while the run is supervised\n\
           --pace <speed>       replay the feed in real time at this\n\
                                speed multiple (1 = wall clock)\n\
         \n\
         daemon mode (long-running service):\n\
           --daemon             bind the operational surface: an\n\
                                OpenMetrics exporter and a line-protocol\n\
                                control socket (STATS/FLUSH/EVICT/SET/\n\
                                SUBSCRIBE/STOP); exits nonzero if a\n\
                                worker dies\n\
           --metrics-addr <a>   exporter bind address\n\
                                (default 127.0.0.1:9464)\n\
           --control-socket <p> control socket as a Unix path (preferred)\n\
           --control-addr <a>   control socket as a TCP address\n\
                                (default 127.0.0.1:9465 when no Unix\n\
                                path is given)\n\
         \n\
         accuracy regressions are gated by the impairment-grid harness:\n\
         see `vcaml-scenario --help`"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        pcap: None,
        synthetic_secs: None,
        calls: 2,
        vca: VcaKind::Teams,
        method: EstimationMethod::AutoHeuristic,
        window_secs: 1,
        idle_timeout_secs: 60,
        alert_fps: None,
        flush_after: None,
        threads: Some(1),
        queue_cap: None,
        overflow: OverflowPolicy::Block,
        quiet: false,
        summary: false,
        stats_every: None,
        daemon: false,
        metrics_addr: None,
        control_socket: None,
        control_addr: None,
        pace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--pcap" => args.pcap = Some(value()),
            "--synthetic" => {
                args.synthetic_secs = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--calls" => args.calls = value().parse().unwrap_or_else(|_| usage()),
            "--vca" => {
                args.vca = match value().as_str() {
                    "teams" => VcaKind::Teams,
                    "meet" => VcaKind::Meet,
                    "webex" => VcaKind::Webex,
                    _ => usage(),
                }
            }
            "--method" => {
                args.method = match value().as_str() {
                    "auto" => EstimationMethod::AutoHeuristic,
                    "auto-ml" => EstimationMethod::AutoMl,
                    "ipudp-heuristic" => EstimationMethod::Fixed(Method::IpUdpHeuristic),
                    "ipudp-ml" => EstimationMethod::Fixed(Method::IpUdpMl),
                    "rtp-heuristic" => EstimationMethod::Fixed(Method::RtpHeuristic),
                    "rtp-ml" => EstimationMethod::Fixed(Method::RtpMl),
                    _ => usage(),
                }
            }
            "--window" => args.window_secs = value().parse().unwrap_or_else(|_| usage()),
            "--idle-timeout" => {
                args.idle_timeout_secs = value().parse().unwrap_or_else(|_| usage())
            }
            "--alert-fps" => args.alert_fps = Some(value().parse().unwrap_or_else(|_| usage())),
            "--flush-after" => args.flush_after = Some(value().parse().unwrap_or_else(|_| usage())),
            "--threads" => {
                args.threads = match value().as_str() {
                    "auto" => None,
                    n => Some(n.parse().unwrap_or_else(|_| usage())),
                }
            }
            "--queue-cap" => args.queue_cap = Some(value().parse().unwrap_or_else(|_| usage())),
            "--overflow" => {
                args.overflow = match value().as_str() {
                    "block" => OverflowPolicy::Block,
                    "drop-oldest" => OverflowPolicy::DropOldest,
                    _ => usage(),
                }
            }
            "--stats-every" => args.stats_every = Some(value().parse().unwrap_or_else(|_| usage())),
            "--daemon" => args.daemon = true,
            "--metrics-addr" => args.metrics_addr = Some(value()),
            "--control-socket" => args.control_socket = Some(value()),
            "--control-addr" => args.control_addr = Some(value()),
            "--pace" => args.pace = Some(value().parse().unwrap_or_else(|_| usage())),
            "--quiet" => args.quiet = true,
            "--summary" => args.summary = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.pcap.is_none() == args.synthetic_secs.is_none() {
        usage();
    }
    // The builder and the synthetic generator assert on these, an idle
    // timeout must fit in `i64` microseconds, and an alert bar that is
    // not a number is refused as `SET alert_fps` refuses it: fail with
    // usage, not a panic.
    if args.window_secs == 0
        || args.synthetic_secs == Some(0)
        || args.flush_after == Some(0)
        || args.idle_timeout_secs <= 0
        || args.idle_timeout_secs > i64::MAX / 1_000_000
        || args.threads == Some(0)
        || args.queue_cap == Some(0)
        || args.stats_every == Some(0)
        || args.pace.is_some_and(|p| !p.is_finite() || p <= 0.0)
        || args.alert_fps.is_some_and(|fps| !fps.is_finite())
    {
        usage();
    }
    // The endpoint flags only mean something in daemon mode.
    if !args.daemon
        && (args.metrics_addr.is_some()
            || args.control_socket.is_some()
            || args.control_addr.is_some())
    {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let mut builder = MonitorBuilder::new(args.vca)
        .method(args.method)
        .window_secs(args.window_secs)
        .threads(args.threads.unwrap_or(0)) // 0 = auto-size from cores
        .overflow(args.overflow)
        .idle_timeout(Timestamp::from_secs(args.idle_timeout_secs));
    if let Some(cap) = args.queue_cap {
        builder = builder.queue_capacity(cap);
    }
    if let Some(k) = args.flush_after {
        builder = builder.flush_after_packets(k);
    }

    // The output is a subscriber composition on the runner's event bus:
    // per-event JSON lines (unless --quiet), threshold alerts, and the
    // end-of-run rollup, all observing one shared event stream in order
    // through one buffered stdout.
    // Catch SIGINT/SIGTERM before any heavy setup (a long synthetic
    // feed is simulated eagerly in the source constructor): a Ctrl-C
    // during setup is then honored at the first watch-loop poll instead
    // of killing the process mid-build.
    signal_bridge::install();
    let out = SharedStdout::new();
    let mut runner = MonitorRunner::new(builder);
    let handle = runner.handle();
    if !args.quiet {
        runner = runner.sink(JsonLinesSink::new(out.clone()));
    }
    if let Some(threshold) = args.alert_fps {
        // The bar lives in the monitor's shared thresholds, so a future
        // control surface can retune it mid-run through the handle.
        handle.set_alert_fps(threshold);
        runner = runner.sink(AlertSink::with_thresholds(
            out.clone(),
            handle.alert_thresholds(),
        ));
    }
    if args.summary {
        runner = runner.sink(SummarySink::new(out.clone()));
    }

    // The feed is a packet source: a pcap capture or synthetic calls,
    // optionally paced to the wall clock (daemon deployments want a
    // live-shaped feed, not a burst).
    if let Some(path) = &args.pcap {
        let source = PcapFileSource::open(path).unwrap_or_else(|e| {
            eprintln!("monitor: cannot read {path}: {e}");
            std::process::exit(1);
        });
        runner = match args.pace {
            Some(speed) => {
                runner.source(Paced::with_speed(source, speed).with_stop(handle.stop_token()))
            }
            None => runner.source(source),
        };
    } else {
        let secs = args.synthetic_secs.expect("validated in parse_args");
        eprintln!(
            "monitor: synthesizing {} concurrent {} call(s), {secs} s",
            args.calls, args.vca
        );
        let source = SyntheticSource::new(args.vca, secs, args.calls, 41);
        runner = match args.pace {
            Some(speed) => {
                runner.source(Paced::with_speed(source, speed).with_stop(handle.stop_token()))
            }
            None => runner.source(source),
        };
    }

    // Daemon mode: bind the operational surface before the run starts,
    // so the first scrape can't race the bind. The bus handle must be
    // taken pre-spawn (SUBSCRIBE attaches live subscribers through it).
    let daemon = if args.daemon {
        let mut config = DaemonConfig::new()
            .ladder(VcaProfile::lab(args.vca))
            .metrics_addr(args.metrics_addr.as_deref().unwrap_or("127.0.0.1:9464"));
        config = match (&args.control_socket, &args.control_addr) {
            (Some(path), _) => config.control(ControlEndpoint::Unix(path.into())),
            (None, Some(addr)) => config.control(ControlEndpoint::Tcp(addr.clone())),
            (None, None) => config.control(ControlEndpoint::Tcp("127.0.0.1:9465".into())),
        };
        let daemon =
            Daemon::start(handle.clone(), runner.bus_handle(), config).unwrap_or_else(|e| {
                eprintln!("monitor: cannot bind daemon servers: {e}");
                std::process::exit(1);
            });
        if let Some(addr) = daemon.metrics_addr() {
            eprintln!("monitor: metrics on http://{addr}/metrics");
        }
        match daemon.control_addr() {
            Some(BoundControl::Unix(path)) => {
                eprintln!("monitor: control socket on {}", path.display())
            }
            Some(BoundControl::Tcp(addr)) => eprintln!("monitor: control socket on {addr}"),
            None => {}
        }
        Some(daemon)
    } else {
        None
    };

    // Supervised background run: the pipeline lives on its own thread,
    // this one watches it through the handle — periodic stats snapshots
    // and the SIGINT/SIGTERM graceful stop.
    let running = runner.spawn();
    let interval = args.stats_every.map(std::time::Duration::from_secs);
    if interval.is_some() {
        // First snapshot immediately (short runs still get one), then
        // one every interval until the run winds down.
        eprintln!("{}", handle.stats_snapshot().to_json_line());
    }
    let mut next = interval.map(|iv| std::time::Instant::now() + iv);
    let mut stop_sent = false;
    while !running.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if signal_bridge::stop_requested() && !stop_sent {
            eprintln!("monitor: stop requested — sealing flows and draining the bus");
            handle.stop();
            stop_sent = true;
        }
        if let (Some(iv), Some(n)) = (interval, next.as_mut()) {
            if std::time::Instant::now() >= *n {
                eprintln!("{}", handle.stats_snapshot().to_json_line());
                *n += iv;
            }
        }
    }
    // Supervision: a worker death surfaces as a supervisor panic on
    // join. In daemon mode that must be a nonzero exit the init system
    // can restart on — not a silent unwind.
    let report = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| running.join())) {
        Ok(report) => report,
        Err(_) => {
            eprintln!("monitor: a pipeline worker died — exiting for supervision");
            if let Some(daemon) = daemon {
                daemon.shutdown();
            }
            std::process::exit(3);
        }
    };
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
    for (i, src) in report.sources.iter().enumerate() {
        if let Some(err) = &src.error {
            eprintln!("monitor: source {i} read error: {err}");
        }
    }
    let stats = &report.stats;
    eprintln!(
        "monitor: {} packets, {} drops, {} flows, {} window reports, {} events shed",
        stats.packets,
        stats.parse_drops,
        stats.flows_opened,
        stats.window_reports,
        stats.events_dropped
    );
}
