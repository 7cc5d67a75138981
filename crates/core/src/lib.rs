//! # vcaml — WebRTC video QoE estimation from IP/UDP headers
//!
//! Rust implementation of the methods in *"Estimating WebRTC Video QoE
//! Metrics Without Using Application Headers"* (IMC 2023):
//!
//! * [`api`] — **the public monitoring facade and the crate's stable
//!   contract**: [`api::MonitorBuilder`] → [`api::Monitor`] → a stream of
//!   [`api::QoeEvent`]s, with raw-packet ingestion (one fused
//!   eth→ip→udp header parse, RTP parse-attempt with confidence fallback and periodic
//!   re-probe), optional shard worker threads, idle eviction that
//!   surfaces final windows, and JSON-lines output;
//! * [`source`] / [`sink`] / [`runner`] — **the pluggable I/O layer**:
//!   pull-based [`source::PacketSource`]s (pcap files or in-memory pcap
//!   bytes, flow-keyed replays, real-time pacing), typed
//!   [`sink::EventSink`]s (JSON lines, callbacks, bounded channel
//!   subscribers, frame-rate alerts, per-flow summaries), and the
//!   [`runner::MonitorRunner`] that drives N sources on N ingest threads
//!   into one monitor and fans the event stream out to every sink;
//! * [`bus`] / [`control`] — **the output/control plane**: events are
//!   shared (`Arc<QoeEvent>`) end to end, the [`bus::EventBus`] fans
//!   them out to typed [`bus::EventFilter`] subscriptions (by kind,
//!   flow set, min-[`bus::Severity`]) without ever deep-copying, and a
//!   cloneable [`control::MonitorHandle`] (from
//!   [`api::Monitor::handle`] or a spawned
//!   [`runner::RunningMonitor`]) observes and steers a live run:
//!   stats snapshots, forced flushes, per-flow eviction, runtime alert
//!   thresholds, graceful stop;
//! * [`daemon`] — **the operational surface**: an OpenMetrics text
//!   exporter over [`control::MonitorHandle::stats_snapshot`] and a
//!   line-protocol control socket (Unix or TCP) mapping typed verbs
//!   (`STATS`/`FLUSH`/`EVICT`/`SET`/`SUBSCRIBE`/`STOP`) 1:1 onto the
//!   handle, so a spawned monitor runs as a long-lived service;
//! * [`backpressure`] — the bounded event delivery model:
//!   [`backpressure::OverflowPolicy`] selects between blocking producers
//!   and dropping the oldest events with exact loss accounting;
//! * [`media`] — video/non-video packet classification from packet sizes
//!   alone (the `Vmin` threshold, §3.1);
//! * [`heuristic`] — the **IP/UDP Heuristic**: frame-boundary detection
//!   from packet-size similarity (Algorithm 1), exploiting VCAs'
//!   equal-size frame fragmentation, implemented as the incremental
//!   [`heuristic::IpUdpAssembler`];
//! * [`rtp_heuristic`] — the **RTP Heuristic** baseline: frame boundaries
//!   from RTP timestamps and marker bits (Michel et al.-style, §3.3),
//!   implemented as the incremental [`rtp_heuristic::RtpAssembler`];
//! * [`qoe`] — frame-sequence → per-window frame rate / bitrate / frame
//!   jitter estimators (§3.2.1), implemented as the incremental
//!   [`qoe::QoeWindower`];
//! * [`engine`] — the unified streaming engine underneath the facade:
//!   the four [`Method`]s and their shared [`EngineConfig`], all four
//!   behind the [`engine::QoeEstimator`] trait
//!   (`push_into`/`finish_into`), plus the sharded, flow-keyed
//!   [`engine::FlowTable`] that monitors many concurrent calls in one
//!   process (§7's "streaming versions of the methods"). *Unstable
//!   internals* — construct through [`api`] unless you are a parity test
//!   or a benchmark;
//! * [`pipeline`] — window samples for training: the **IP/UDP ML** and
//!   **RTP ML** feature rows with their ground truth (a replay over the
//!   engines), which random forests are fitted on (§3.2.2);
//! * [`resolution`] — resolution class schemes (per-height for Meet/Webex,
//!   low/medium/high bins for Teams, §5.1.5);
//! * [`trace`] — the monitor-side trace model consumed by all methods.
//!
//! One implementation estimates: the engines drive the incremental
//! assemblers and windower packet by packet, and the training rows of
//! [`pipeline::build_samples`] come from one pass of each trace through
//! the same engines. The whole-trace batch forms the parity tests and the
//! Fig 4 error taxonomy compare against live with the corpora, in
//! `vcaml_datasets::oracle`, not here.

pub mod api;
pub mod backpressure;
pub mod bus;
pub mod control;
pub mod daemon;
pub mod engine;
pub mod frames;
pub mod heuristic;
mod json;
mod leaf;
pub mod media;
pub mod pipeline;
pub mod qoe;
pub mod resolution;
pub mod rtp_heuristic;
pub mod runner;
pub mod sink;
pub mod source;
pub mod trace;

pub use api::{
    EstimationMethod, EvictReason, Monitor, MonitorBuilder, MonitorStats, ParseDropReason, QoeEvent,
};
pub use backpressure::OverflowPolicy;
pub use bus::{AlertBar, AlertThresholds, BusHandle, EventBus, EventFilter, EventKind, Severity};
pub use control::{MonitorHandle, MonitorSnapshot, StopToken};
pub use daemon::{ControlEndpoint, Daemon, DaemonConfig};
pub use runner::{MonitorRunner, RunnerReport, RunningMonitor, SourceReport};
pub use sink::{
    AlertSink, CallbackSink, ChannelSink, CountingSink, EventSink, JsonLinesSink, Summary,
    SummarySink,
};
pub use source::{Paced, PacketSource, PcapFileSource, ReplaySource, SourcePacket};
// The concrete engines, `FlowTable`, and `replay` stay at their
// `engine::` paths only: they are unstable internals behind the facade.
pub use engine::{EngineConfig, Method, QoeEstimator, WindowReport, MAX_WINDOW_SECS};
pub use frames::Frame;
pub use heuristic::{HeuristicParams, IpUdpAssembler};
pub use media::MediaClassifier;
pub use pipeline::{build_samples, PipelineOpts, SampleSet, WindowSample};
pub use qoe::{QoeEstimate, QoeWindower};
pub use resolution::ResolutionScheme;
pub use trace::{Trace, TracePacket, TruthRow};
