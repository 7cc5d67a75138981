//! The operational surface: run a monitor as a long-lived, remotely
//! observable service.
//!
//! [`MonitorRunner::spawn`](crate::runner::MonitorRunner::spawn) already
//! gives a supervised background run with an in-process
//! [`MonitorHandle`](crate::control::MonitorHandle); this module exposes
//! that handle *out of process*, which is what an unattended deployment
//! at an ISP vantage point (the paper's §1 operator loop) actually
//! needs. Two servers, both dependency-free over `std::net`:
//!
//! * [`metrics`] — an **OpenMetrics/Prometheus text exporter**: a tiny
//!   HTTP/1.0 responder rendering
//!   [`stats_snapshot()`](crate::control::MonitorHandle::stats_snapshot)
//!   as `# TYPE`-annotated counter/gauge families with `shard` /
//!   `method` / `severity` / `flow` labels. Scrapes read atomic counter
//!   cells only — a scrape can never block a shard worker.
//! * [`control`] + [`server`] — a **line-protocol control socket**
//!   (Unix socket, TCP fallback) mapping verbs 1:1 onto the handle:
//!   `STATS`, `FLUSH`, `EVICT <flow>`, `SET <knob> <value>`,
//!   `SUBSCRIBE [filter]` (streams JSON-lines events through a bounded
//!   [`ChannelSink`](crate::sink::ChannelSink) that sheds instead of
//!   blocking the drain), and `STOP`. The grammar is typed: malformed
//!   input gets an `ERR <code> <detail>` reply and never panics the
//!   daemon (fuzz-tested).
//!
//! [`Daemon::start`] binds whichever servers the [`DaemonConfig`]
//! enables and runs them on their own threads; [`Daemon::shutdown`]
//! winds them down. The monitor's lifecycle stays with its supervisor
//! (`RunningMonitor`) — the daemon only observes and steers it, so a
//! `STOP` verb ends the *run* and the CLI then shuts the servers down.
//!
//! ```no_run
//! use std::io::Cursor;
//! use vcaml::api::MonitorBuilder;
//! use vcaml::daemon::{Daemon, DaemonConfig};
//! use vcaml::runner::MonitorRunner;
//! use vcaml::source::PcapFileSource;
//! use vcaml_rtp::VcaKind;
//! use vcaml_vcasim::synthetic_capture;
//!
//! let capture = synthetic_capture(VcaKind::Teams, 30, 2, 7);
//! let mut runner = MonitorRunner::new(MonitorBuilder::new(VcaKind::Teams))
//!     .source(PcapFileSource::new(Cursor::new(capture)).expect("a pcap header"));
//! let handle = runner.handle();
//! let bus = runner.bus_handle();
//! let daemon = Daemon::start(
//!     handle,
//!     bus,
//!     DaemonConfig::default().metrics_addr("127.0.0.1:9464"),
//! )
//! .expect("bind daemon servers");
//! let running = runner.spawn();
//! // ... scrape http://127.0.0.1:9464/metrics, drive the control
//! // socket, then:
//! let report = running.stop();
//! daemon.shutdown();
//! # let _ = report;
//! ```

pub mod control;
pub mod metrics;
pub mod server;

pub use control::{parse_request, ControlError, Request, Setting, MAX_LINE_BYTES};
pub use metrics::render_openmetrics;
pub use server::{BoundControl, ControlEndpoint, Daemon, DaemonConfig, MAX_CONNECTIONS};
