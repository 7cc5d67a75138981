//! The public monitoring facade: raw packets in, typed QoE events out.
//!
//! This module is the stable contract of the crate. A [`MonitorBuilder`]
//! turns typed configuration — estimation method (with RTP-confidence
//! fallback), window length, idle-eviction policy, optional max-lag
//! flush — into a [`Monitor`] that owns the flow demultiplexer and
//! per-flow engines internally. Ingestion accepts raw link-layer bytes,
//! raw IP bytes, pcap records, or pre-parsed [`TracePacket`]s (for
//! replays of recorded traces), performing one fused eth→ip→udp header
//! parse and the RTP parse-attempt itself; callers never touch `netpkt`
//! internals. Output is a stream of [`QoeEvent`]s — window
//! reports, flow lifecycle, per-interval summaries of classified parse
//! drops — drained as an
//! iterator (or, through [`crate::runner::MonitorRunner`], published to
//! subscriber sinks), and serializable as JSON lines for dashboards and
//! log shippers.
//!
//! The monitor scales across cores: [`MonitorBuilder::threads`] gives
//! each dedicated worker thread a flow table of its own — each packet is hashed
//! by flow to one worker over a bounded channel, each worker runs its
//! flows' engines, windowing, and eviction independently, and the merged
//! event stream preserves per-flow ordering with window-exact parity
//! against the sequential monitor (a tested invariant). The outgoing
//! event queue is bounded ([`MonitorBuilder::queue_capacity`]) with an
//! explicit [`OverflowPolicy`]: `Block` for end-to-end backpressure,
//! `DropOldest` for bounded memory with exact loss accounting via
//! [`QoeEvent::Dropped`] markers.
//!
//! The raw engines and `FlowTable` in [`crate::engine`] remain public for
//! parity tests and benchmarks but are documented-unstable; everything
//! else should come through here.
//!
//! ```
//! use vcaml::api::{EstimationMethod, MonitorBuilder, QoeEvent};
//! use vcaml::{Method, TracePacket};
//! use vcaml_netpkt::{FlowKey, Timestamp};
//! use vcaml_rtp::VcaKind;
//!
//! let mut monitor = MonitorBuilder::new(VcaKind::Teams)
//!     .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
//!     .build();
//! let (flow, _) = FlowKey::canonical(
//!     "10.0.0.1".parse().unwrap(), 50_000,
//!     "203.0.113.1".parse().unwrap(), 3_478, 17);
//! // 3 seconds of 30 fps video, two ~1.1 kB packets per frame.
//! for f in 0..90i64 {
//!     for i in 0..2i64 {
//!         monitor.ingest_packet(flow, TracePacket {
//!             ts: Timestamp::from_micros(f * 33_333 + i * 300),
//!             size: 1_100 + (f % 7) as u16,
//!             rtp: None,
//!             truth_media: None,
//!         });
//!     }
//! }
//! let events: Vec<QoeEvent> = monitor.finish();
//! assert!(events.iter().any(|e| matches!(e, QoeEvent::FlowOpened { .. })));
//! // Mid-stream windows arrive as WindowReport events; the sealed tail
//! // rides on the end-of-stream FlowEvicted event.
//! let windows: usize = events.iter().map(|e| match e {
//!     QoeEvent::WindowReport { .. } => 1,
//!     QoeEvent::FlowEvicted { final_reports, .. } => final_reports.len(),
//!     _ => 0,
//! }).sum();
//! assert_eq!(windows, 3, "one report per elapsed second");
//! ```
//!
//! The implementation lives in private child modules, one per seam:
//! `event` (the output vocabulary), `builder` (typed configuration),
//! `decode` (each of the four front doors → one flow-keyed packet or one
//! classified drop), `shard` (per-worker flow table, probation,
//! eviction), and `monitor` (dispatch, lanes onto the shard workers, the
//! drain side).
//! Every item keeps its `vcaml::api::…` path.
//!
//! [`TracePacket`]: crate::trace::TracePacket

mod builder;
mod decode;
mod event;
mod monitor;
mod shard;
// Compiled under test only: the file opens with `#![cfg(test)]`.
mod tests;

pub use crate::backpressure::OverflowPolicy;
pub use builder::{EstimationMethod, MonitorBuilder};
pub(crate) use event::StatsCells;
pub use event::{qoe_event_clone_count, EvictReason, MonitorStats, ParseDropReason, QoeEvent};
pub(crate) use monitor::IngestPort;
pub use monitor::Monitor;
pub use shard::build_engine;

/// A per-flow estimator behind the facade. `Send` so a threaded
/// monitor's shard state, engines included, can move onto its worker
/// thread.
pub type BoxedEngine = Box<dyn crate::engine::QoeEstimator + Send>;

/// Packets buffered per flow before the RTP-confidence decision is made
/// (auto method selection only).
pub const RTP_PROBATION_PACKETS: usize = 16;

/// Fraction of probation packets that must parse as RTP for a flow to be
/// assigned the RTP variant of an auto method. A majority suffices:
/// real sessions lead with STUN/DTLS handshake packets that are not RTP,
/// and the IP/UDP fallback is always sound, so the preference only needs
/// media to be genuinely visible.
pub const RTP_CONFIDENCE: f64 = 0.5;

/// Packets between RTP-confidence re-probes on a flow that auto method
/// selection resolved to its IP/UDP fallback. A flow that led with a
/// non-RTP handshake (STUN/DTLS) and only then started media gets its
/// RTP engine after at most this many post-probation packets instead of
/// keeping the fallback forever.
pub const RTP_REPROBE_PACKETS: u32 = 256;

/// How often (in stream time) a shard publishes its flow footprint. Flows
/// expire on their own deadlines, checked every packet.
const EVICT_CHECK_US: i64 = 1_000_000;

/// Default bound on the outgoing event queue (see
/// [`MonitorBuilder::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// Packets accumulated per shard before a batch is sent to its worker
/// (threaded monitors only). Batching amortizes the channel hand-off —
/// the dominant dispatch cost, so it is sized generously;
/// [`Monitor::drain_events`] and [`Monitor::finish`] flush partial
/// batches, so no packet waits forever.
const INGEST_BATCH: usize = 512;
