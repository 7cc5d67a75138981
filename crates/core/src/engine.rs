//! The unified incremental estimation engine (§7's "streaming versions of
//! the methods", scaled out to many concurrent calls).
//!
//! **Stability: unstable internals.** This module is the machine room
//! under the [`crate::api`] facade. It stays `pub` so parity tests and
//! benchmarks can drive engines directly, but its types and signatures
//! may change without notice; applications should construct monitors
//! through [`crate::api::MonitorBuilder`] and consume
//! [`crate::api::QoeEvent`]s instead of wiring engines and [`FlowTable`]s
//! by hand.
//!
//! All four methods of the paper implement one trait — [`QoeEstimator`]:
//! feed captured packets in arrival order via `push_into`, receive
//! finalized [`WindowReport`]s as window boundaries become safe, and
//! `finish_into` at end of stream.
//!
//! The four methods differ in two things only: how a packet is classified
//! (size threshold or RTP payload type) and what a window accumulates
//! (frames or Table 1 features). The rest is one machine, written once: a
//! per-flow window clock (timestamp → window map, first-packet anchoring,
//! the far-jump quarantine of [`MAX_WINDOW_GAP`]) under two drivers, each
//! implementing [`QoeEstimator`] once:
//!
//! * [`HeuristicDriver`] over a frame source — a classifier and an
//!   assembler from [`crate::heuristic`] / [`crate::rtp_heuristic`] —
//!   whose assembler seals frames straight into the frame log of a
//!   [`crate::qoe::QoeWindower`]: [`IpUdpHeuristicEngine`] and
//!   [`RtpHeuristicEngine`];
//! * [`MlDriver`] over a feature source — a classifier and the
//!   accumulators of `vcaml_features::incremental` — reports a feature
//!   vector per window: [`IpUdpMlEngine`] and [`RtpMlEngine`].
//!
//! The batch [`crate::pipeline::build_samples`] is a replay over these
//! engines (see [`replay`]), so streaming and batch numbers agree exactly.
//!
//! For network-wide deployment, [`FlowTable`] demuxes a mixed packet feed
//! onto per-flow engines keyed by the canonical UDP 5-tuple
//! (`vcaml_netpkt::FlowKey`), with idle-flow eviction so memory tracks
//! the set of *active* calls. A threaded monitor gives each of its
//! workers a table of its own.
//!
//! ## Emission latency
//!
//! Heuristic reports are emitted as soon as every frame that could still
//! land in a window has been sealed (a few packets after the boundary for
//! the IP/UDP method, up to [`SCAN_DEPTH`](crate::rtp_heuristic) frames
//! for the RTP method); ML feature reports are emitted at the first
//! packet past the boundary. `finish_into` flushes everything.

use crate::frames::Frame;
use crate::heuristic::{HeuristicParams, IpUdpAssembler};
use crate::json;
use crate::media::MediaClassifier;
use crate::qoe::{QoeEstimate, QoeWindower};
use crate::rtp_heuristic::RtpAssembler;
use crate::trace::{Trace, TracePacket};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vcaml_features::rtp_feats::LagReference;
use vcaml_features::{FlowFeatureAcc, IpUdpFeatureAcc, RtpWindowAcc, StatsMode};
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::{FlowKey, Timestamp};
use vcaml_rtp::{MediaKind, PayloadMap, VcaKind};

/// The paper's four estimation methods, one engine each.
///
/// Stability: stable — re-exported from the crate root as part of the
/// supported API surface (see `ARCHITECTURE.md` § stability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Frame reconstruction from packet sizes only (Algorithm 1).
    IpUdpHeuristic,
    /// Random forest on IP/UDP features.
    IpUdpMl,
    /// Frame reconstruction from RTP timestamps + marker bits.
    RtpHeuristic,
    /// Random forest on flow + RTP features.
    RtpMl,
}

impl Method {
    /// All four, in the paper's legend order.
    pub const ALL: [Method; 4] = [
        Method::RtpMl,
        Method::IpUdpMl,
        Method::RtpHeuristic,
        Method::IpUdpHeuristic,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "IP/UDP Heuristic",
            Method::IpUdpMl => "IP/UDP ML",
            Method::RtpHeuristic => "RTP Heuristic",
            Method::RtpMl => "RTP ML",
        }
    }

    /// The variant's own name, as `{:?}` prints it — how a window
    /// report's JSON spells its `method`.
    pub(crate) fn variant_name(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "IpUdpHeuristic",
            Method::IpUdpMl => "IpUdpMl",
            Method::RtpHeuristic => "RtpHeuristic",
            Method::RtpMl => "RtpMl",
        }
    }

    /// Whether this is one of the ML methods.
    pub fn is_ml(&self) -> bool {
        matches!(self, Method::IpUdpMl | Method::RtpMl)
    }

    /// Stable machine-readable slug (metric labels, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "ip_udp_heuristic",
            Method::IpUdpMl => "ip_udp_ml",
            Method::RtpHeuristic => "rtp_heuristic",
            Method::RtpMl => "rtp_ml",
        }
    }

    /// Position in [`Method::ALL`] — a dense slot for per-method
    /// counter arrays.
    pub fn index(&self) -> usize {
        match self {
            Method::RtpMl => 0,
            Method::IpUdpMl => 1,
            Method::RtpHeuristic => 2,
            Method::IpUdpHeuristic => 3,
        }
    }
}

/// Engine configuration shared by all four methods.
///
/// Stability: stable — re-exported from the crate root as part of the
/// supported API surface (see `ARCHITECTURE.md` § stability).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Media-classification size threshold (IP/UDP methods).
    pub vmin: u16,
    /// Algorithm 1 parameters (IP/UDP Heuristic).
    pub heuristic: HeuristicParams,
    /// Prediction window length, seconds.
    pub window_secs: u32,
    /// Microburst inter-arrival threshold, microseconds.
    pub theta_iat_us: i64,
    /// Vestige, selects nothing ([`StatsMode`] has one variant):
    /// `benchmark/src/layers.rs` is its only reader, and the next
    /// `[benchmark]`-typed PR drops it.
    pub stats: StatsMode,
}

impl EngineConfig {
    /// The paper's configuration for a VCA (§4.3).
    pub fn paper(vca: VcaKind) -> Self {
        EngineConfig {
            vmin: crate::media::DEFAULT_VMIN,
            heuristic: HeuristicParams::paper(vca),
            window_secs: 1,
            theta_iat_us: vcaml_features::DEFAULT_THETA_IAT_US,
            stats: StatsMode::Exact,
        }
    }

    pub(crate) fn window_us(&self) -> i64 {
        i64::from(self.window_secs) * 1_000_000
    }
}

/// The longest prediction window, in whole seconds: the largest whose
/// span in microseconds fits `i32`. An ML engine logs each gap between
/// consecutive packets of a window as `i32` microseconds
/// (`vcaml_features::FlowFeatureAcc`), and a gap it logs lies strictly
/// inside one window (a late packet is dropped, and a seal restarts the
/// gap chain), so under this bound every gap fits. It is a bound, not an
/// option: [`crate::MonitorBuilder::window_secs`] and every engine refuse
/// a longer window.
///
/// Stability: stable — re-exported from the crate root as the bound the
/// builder checks.
pub const MAX_WINDOW_SECS: u32 = 2_147;

const _: () = assert!(MAX_WINDOW_SECS == i32::MAX as u32 / 1_000_000);

/// Largest run of consecutive empty windows an engine will emit for one
/// arrival gap. A packet whose window index jumps further than this — in
/// either direction, covering a corrupt timestamp on the *first* packet
/// followed by sane traffic "in the past" — is *quarantined*: the packet
/// is dropped, and only after
/// [`DISCONTINUITY_CORROBORATION`] consecutive packets land near the same
/// new epoch does the engine treat the jump as a genuine capture
/// discontinuity (very long idle, capture restart) — flushing pending
/// windows, skipping the gap without per-window reports, and re-anchoring
/// emission at the new window. Isolated corrupt timestamps (a mangled
/// pcap record) are therefore dropped without poisoning the flow, while
/// per-packet work and allocation stay bounded no matter what timestamps
/// arrive. [`replay`] fills skipped windows explicitly, so batch outputs
/// are unaffected.
pub const MAX_WINDOW_GAP: u64 = 4_096;

/// How many consecutive packets must agree with a new far-future epoch
/// before an engine re-anchors to it (see [`MAX_WINDOW_GAP`]).
pub const DISCONTINUITY_CORROBORATION: u32 = 3;

/// One finalized prediction window from an engine.
///
/// Stability: stable — re-exported from the crate root as part of the
/// supported API surface (see `ARCHITECTURE.md` § stability).
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index (0-based from stream start).
    pub window: u64,
    /// The method that produced the report.
    pub method: Method,
    /// Heuristic QoE estimate (heuristic methods only).
    pub estimate: Option<QoeEstimate>,
    /// Feature vector (ML methods only): 14 IP/UDP or 24 RTP features.
    pub features: Option<Vec<f64>>,
    /// Frame-rate prediction from an attached model, if any.
    pub model_fps: Option<f64>,
    /// Packets the method attributed to video in this window (by arrival).
    pub video_packets: usize,
}

impl WindowReport {
    /// Appends this report as a JSON object; `method` is the variant
    /// name (`"RtpHeuristic"`).
    pub(crate) fn write_json(&self, out: &mut String) {
        let mut o = json::Object::begin(out);
        json::uint(o.key("window"), self.window);
        json::str(o.key("method"), self.method.variant_name());
        json::opt(o.key("estimate"), self.estimate.as_ref(), |out, e| {
            e.write_json(out)
        });
        json::opt(o.key("features"), self.features.as_ref(), |out, v| {
            json::array(out, v, |out, x| json::float(out, *x))
        });
        json::opt(o.key("model_fps"), self.model_fps, json::float);
        json::uint(o.key("video_packets"), self.video_packets as u64);
        o.end();
    }
}

/// The unified per-flow estimator interface all four methods implement.
///
/// Contract: packets arrive with non-decreasing timestamps; negative
/// timestamps are outside every window and are dropped. Reports come out
/// in strict window order with no gaps (idle windows yield zero
/// estimates / zero features). Call `finish_into` exactly once at end of
/// stream to flush the remaining windows.
///
/// Stability: stable — re-exported from the crate root as part of the
/// supported API surface (see `ARCHITECTURE.md` § stability).
pub trait QoeEstimator {
    /// Which of the paper's four methods this engine implements.
    fn method(&self) -> Method;

    /// Offers one captured packet, appending any windows it finalizes
    /// into `out`. This is the hot-path form: with a warmed caller-owned
    /// buffer the steady-state per-packet path performs no heap
    /// allocation.
    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>);

    /// Flushes every remaining window at end of stream into `out`. Call
    /// exactly once.
    fn finish_into(&mut self, out: &mut Vec<WindowReport>);

    /// The report an idle (empty) window produces — used by [`replay`] to
    /// pad a fixed-duration evaluation.
    fn empty_report(&self, window: u64) -> WindowReport;

    /// Snapshots every window that has started but is not yet final —
    /// the still-accumulating current window and, for the heuristic
    /// engines, boundary windows held back by open frames — into `out`.
    /// The reports are *provisional*: metrics are lower bounds that the
    /// eventual final report supersedes, and nothing is consumed from the
    /// engine. Used by the facade's optional max-lag flush; engines that
    /// cannot snapshot append nothing (the default).
    fn provisional_into(&self, _out: &mut Vec<WindowReport>) {}

    /// Approximate resident size of this flow's state — the engine value
    /// itself plus owned heap — feeding the monitor's bytes-per-flow
    /// gauge. An attached model's trees are shared by every flow and are
    /// not counted. Engines hold heap only for what their flow carries:
    /// an IP/UDP Heuristic engine that has seen no video packet reads
    /// exactly its own size. Engines that do not account return 0.
    fn state_bytes(&self) -> usize {
        0
    }
}

impl<T: QoeEstimator + ?Sized> QoeEstimator for Box<T> {
    fn method(&self) -> Method {
        (**self).method()
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        (**self).push_into(pkt, out)
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        (**self).finish_into(out)
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        (**self).empty_report(window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        (**self).provisional_into(out)
    }

    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }
}

// ---------------------------------------------------------------------------
// The window clock
// ---------------------------------------------------------------------------

/// What one accepted packet does to a [`WindowClock`]; every variant
/// carries the packet's window `w`.
#[derive(Debug, Clone, Copy)]
enum Tick {
    /// The flow's first packet: emission anchors at its window.
    Start(u64),
    /// Within the bounded gap of the clock, which read `from` before this
    /// packet and now reads `max(from, w)`.
    Step { w: u64, from: u64 },
    /// A corroborated discontinuity: the clock left `from` and now reads
    /// `w`, which may lie before or after it.
    Reanchor { w: u64, from: u64 },
}

/// A flow's window clock, shared by both estimator families.
///
/// The window *indices* are absolute (window `w` always covers
/// `[w·W, (w+1)·W)` on the capture clock), but emission is **anchored at
/// the first packet the flow sees**: a flow first observed an hour into a
/// capture starts reporting at that hour's window instead of emitting
/// thousands of empty windows from t = 0. Replay fills any leading gap
/// explicitly, so batch outputs are unaffected. The clock reads the
/// highest window a packet has landed in; far jumps are quarantined (see
/// [`MAX_WINDOW_GAP`]).
struct WindowClock {
    window_us: i64,
    /// The highest window seen (the new epoch's after a re-anchor).
    now: u64,
    started: bool,
    /// A far jump under quarantine: `(first suspect window, corroborating
    /// packets seen)`.
    suspect: Option<(u64, u32)>,
    /// Bounds of window `now` (`lo > hi` until the first packet).
    /// Consecutive packets overwhelmingly land in it, so the common
    /// lookup is two compares instead of an `i64` division.
    lo: i64,
    hi: i64,
}

impl WindowClock {
    fn new(config: EngineConfig) -> Self {
        assert!(
            (1..=MAX_WINDOW_SECS).contains(&config.window_secs),
            "window of {} s outside 1..={MAX_WINDOW_SECS}",
            config.window_secs
        );
        WindowClock {
            window_us: config.window_us(),
            now: 0,
            started: false,
            suspect: None,
            lo: 1,
            hi: 0,
        }
    }

    /// The window length in seconds (exact: `window_us` is a whole
    /// number of seconds).
    fn window_secs(&self) -> f64 {
        self.window_us as f64 / 1e6
    }

    /// The clock's reading, once a packet was accepted.
    fn now(&self) -> Option<u64> {
        self.started.then_some(self.now)
    }

    /// Window index of a timestamp, or `None` for negative timestamps
    /// (outside every window).
    #[inline]
    fn window_of(&self, ts: Timestamp) -> Option<u64> {
        let us = ts.as_micros();
        if us >= self.lo && us < self.hi {
            return Some(self.now);
        }
        (us >= 0).then(|| us.div_euclid(self.window_us) as u64)
    }

    fn move_to(&mut self, w: u64) {
        self.now = w;
        self.lo = w as i64 * self.window_us;
        self.hi = self.lo + self.window_us;
    }

    /// Accepts one packet timestamp, or returns `None` when the packet
    /// must be dropped (negative timestamp, or a quarantined far jump —
    /// see [`MAX_WINDOW_GAP`]).
    #[inline]
    fn tick(&mut self, ts: Timestamp) -> Option<Tick> {
        let us = ts.as_micros();
        if us >= self.lo && us < self.hi {
            // Inside window `now` (started is implied: the bounds are
            // empty until the first packet): near the epoch, so any earlier
            // outlier was corrupt.
            self.suspect = None;
            return Some(Tick::Step {
                w: self.now,
                from: self.now,
            });
        }
        if us < 0 {
            return None;
        }
        let w = us.div_euclid(self.window_us) as u64;
        if !self.started {
            self.started = true;
            self.move_to(w);
            return Some(Tick::Start(w));
        }
        let from = self.now;
        if w.abs_diff(from) <= MAX_WINDOW_GAP {
            // Near the established epoch: any earlier outlier was corrupt.
            self.suspect = None;
            if w > from {
                self.move_to(w);
            }
            return Some(Tick::Step { w, from });
        }
        // A far jump is dropped until enough packets cluster near one new
        // epoch; one that does not cluster with the previous suspect
        // (random corruption) restarts the quarantine.
        let (epoch, seen) = match self.suspect {
            Some((epoch, seen)) if w.abs_diff(epoch) <= MAX_WINDOW_GAP => (epoch, seen + 1),
            _ => (w, 1),
        };
        if seen < DISCONTINUITY_CORROBORATION {
            self.suspect = Some((epoch, seen));
            return None;
        }
        self.suspect = None;
        self.move_to(w);
        Some(Tick::Reanchor { w, from })
    }
}

// ---------------------------------------------------------------------------
// What a method adds to its family's driver
// ---------------------------------------------------------------------------

/// The per-method halves of the two drivers. The traits are `pub` only so
/// the public drivers may name them in bounds; the module is private, so
/// nothing outside this file can name or implement them.
mod sources {
    use super::Method;
    use crate::frames::Frame;
    use crate::trace::TracePacket;
    use vcaml_netpkt::Timestamp;

    /// What a heuristic engine's frame assembly must provide; implemented by
    /// the two classification+assembler pairings so the (subtle) push/finish
    /// orchestration exists exactly once in [`super::HeuristicDriver`].
    pub trait FrameSource {
        /// The method this source implements.
        const METHOD: Method;

        /// Classifies one packet and, for video, feeds the assembler,
        /// appending any frames this packet seals into `sealed`. Returns
        /// `false` for non-video packets, `true` for video packets.
        fn accept_into(&mut self, pkt: &TracePacket, sealed: &mut Vec<(u64, Frame)>) -> bool;

        /// Seals every open frame (end of stream or discontinuity) into `out`.
        fn seal_all_into(&mut self, out: &mut Vec<(u64, Frame)>);

        /// Earliest end time any open frame can still finalize with.
        fn min_open_end(&self) -> Option<Timestamp>;

        /// Heap bytes the assembler currently holds.
        fn heap_bytes(&self) -> usize;
    }

    /// What an ML engine accumulates per window; implemented by the two
    /// feature sets so the window loop exists exactly once in [`super::MlDriver`].
    pub trait FeatureSource {
        /// The method this source implements.
        const METHOD: Method;

        /// Classifies one packet and accumulates it into the current window
        /// if the method counts it.
        fn accept(&mut self, pkt: &TracePacket);

        /// The width of the feature vector, at most
        /// [`super::MAX_FEATURES`].
        const WIDTH: usize;

        /// Writes the current window's feature vector into `out`, which
        /// holds exactly [`FeatureSource::WIDTH`] values.
        fn features_into(&self, window_secs: f64, out: &mut [f64]);

        /// Video packets accumulated into the current window.
        fn video_packets(&self) -> usize;

        /// Clears the current window, retaining buffer capacity.
        fn reset(&mut self);

        /// A source as freshly built from the same configuration, holding
        /// no heap: what an empty window's features are computed from.
        fn pristine(&self) -> Self;

        /// Heap bytes the accumulators hold.
        fn heap_bytes(&self) -> usize;
    }
}

use sources::{FeatureSource, FrameSource};

// ---------------------------------------------------------------------------
// Heuristic engines: one driver over two frame sources
// ---------------------------------------------------------------------------

/// A streaming heuristic engine: window clock, packet counting, and
/// safe/final draining over a frame source. The source seals frames
/// straight into the windower's frame log, the one place a sealed frame
/// lives, and drained windows go straight into the caller's reports.
pub struct HeuristicDriver<S> {
    source: S,
    clock: WindowClock,
    windower: QoeWindower,
}

/// Streaming IP/UDP Heuristic: size-threshold media classification,
/// incremental Algorithm 1, per-window QoE estimation.
pub type IpUdpHeuristicEngine = HeuristicDriver<IpUdpFrames>;

/// Streaming RTP Heuristic: payload-type media classification, incremental
/// timestamp/marker frame grouping, per-window QoE estimation.
pub type RtpHeuristicEngine = HeuristicDriver<RtpFrames>;

impl<S: FrameSource> HeuristicDriver<S> {
    fn with_source(config: EngineConfig, source: S) -> Self {
        HeuristicDriver {
            source,
            clock: WindowClock::new(config),
            windower: QoeWindower::new(config.window_secs),
        }
    }

    /// Emits every window strictly before `safe` as a report into `out`.
    fn drain_until(&mut self, safe: u64, out: &mut Vec<WindowReport>) {
        self.windower
            .drain_until(safe, |w, e, packets| out.push(Self::report(w, e, packets)));
    }

    fn report(window: u64, estimate: QoeEstimate, video_packets: usize) -> WindowReport {
        WindowReport {
            window,
            method: S::METHOD,
            estimate: Some(estimate),
            features: None,
            model_fps: None,
            video_packets,
        }
    }

    /// Seals every open frame and emits everything through window
    /// `through` and the last window holding a frame.
    fn flush_through(&mut self, through: u64, out: &mut Vec<WindowReport>) {
        self.source.seal_all_into(self.windower.sealed());
        let last_open = self.windower.last_open_window().map_or(0, |w| w + 1);
        self.drain_until((through + 1).max(last_open), out);
    }
}

impl<S: FrameSource> QoeEstimator for HeuristicDriver<S> {
    fn method(&self) -> Method {
        S::METHOD
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        let w = match self.clock.tick(pkt.ts) {
            None => return,
            Some(Tick::Start(w)) => {
                self.windower.anchor(w);
                w
            }
            Some(Tick::Step { w, .. }) => w,
            Some(Tick::Reanchor { w, from }) => {
                // Flush everything pending at the old epoch before
                // jumping, so windows are emitted at their own indices.
                self.flush_through(from, out);
                self.windower.anchor(w);
                w
            }
        };
        if self.source.accept_into(pkt, self.windower.sealed()) {
            self.windower.count(w);
        }
        // Emit every window arrivals have moved past that no still-open
        // frame could seal into.
        let now = self.clock.now;
        let open_bound = self
            .source
            .min_open_end()
            .and_then(|ts| self.clock.window_of(ts));
        self.drain_until(now.min(open_bound.unwrap_or(now)), out);
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        if let Some(now) = self.clock.now() {
            self.flush_through(now, out);
        }
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        Self::report(window, self.windower.empty_estimate(), 0)
    }

    /// Snapshots every pending window (`next emission ..= clock`) without
    /// consuming anything: frames still open in the assembler are not
    /// included, so the estimates are lower bounds.
    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        let Some(now) = self.clock.now() else {
            return;
        };
        out.extend((self.windower.next_window()..=now).map(|w| {
            let (estimate, packets) = self.windower.peek(w);
            Self::report(w, estimate, packets)
        }));
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.source.heap_bytes() + self.windower.heap_bytes()
    }
}

/// Size-threshold classification feeding Algorithm 1.
pub struct IpUdpFrames {
    classifier: MediaClassifier,
    assembler: IpUdpAssembler,
}

impl IpUdpHeuristicEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        HeuristicDriver::with_source(
            config,
            IpUdpFrames {
                classifier: MediaClassifier::new(config.vmin),
                assembler: IpUdpAssembler::new(config.heuristic),
            },
        )
    }
}

impl FrameSource for IpUdpFrames {
    const METHOD: Method = Method::IpUdpHeuristic;

    fn accept_into(&mut self, pkt: &TracePacket, sealed: &mut Vec<(u64, Frame)>) -> bool {
        if !self.classifier.is_video(pkt) {
            return false;
        }
        self.assembler.push_into(pkt.ts, pkt.size, sealed);
        true
    }

    fn seal_all_into(&mut self, out: &mut Vec<(u64, Frame)>) {
        self.assembler.finish_into(out);
    }

    fn min_open_end(&self) -> Option<Timestamp> {
        self.assembler.min_open_end()
    }

    fn heap_bytes(&self) -> usize {
        self.assembler.heap_bytes()
    }
}

/// Payload-type classification feeding RTP timestamp/marker grouping.
pub struct RtpFrames {
    payload_map: PayloadMap,
    assembler: RtpAssembler,
}

impl RtpHeuristicEngine {
    /// Creates an engine; the payload map supplies PT→media classification.
    pub fn new(config: EngineConfig, payload_map: PayloadMap) -> Self {
        HeuristicDriver::with_source(
            config,
            RtpFrames {
                payload_map,
                assembler: RtpAssembler::new(),
            },
        )
    }
}

impl FrameSource for RtpFrames {
    const METHOD: Method = Method::RtpHeuristic;

    fn accept_into(&mut self, pkt: &TracePacket, sealed: &mut Vec<(u64, Frame)>) -> bool {
        let Some(h) = pkt
            .rtp
            .filter(|h| self.payload_map.classify(h.payload_type) == Some(MediaKind::Video))
        else {
            return false;
        };
        self.assembler
            .push_into(pkt.ts, h.timestamp, h.marker, pkt.size, sealed);
        true
    }

    fn seal_all_into(&mut self, out: &mut Vec<(u64, Frame)>) {
        self.assembler.finish_into(out);
    }

    fn min_open_end(&self) -> Option<Timestamp> {
        self.assembler.min_open_end()
    }

    fn heap_bytes(&self) -> usize {
        self.assembler.heap_bytes()
    }
}

// ---------------------------------------------------------------------------
// ML engines: one driver over two feature sources
// ---------------------------------------------------------------------------

/// The widest feature vector an ML engine builds: the RTP ML method's
/// 12 flow plus 12 RTP features.
const MAX_FEATURES: usize = FlowFeatureAcc::WIDTH + RtpWindowAcc::WIDTH;

/// A streaming ML engine: window clock and per-window feature reports
/// (+ optional model inference) over a feature source.
pub struct MlDriver<F> {
    source: F,
    clock: WindowClock,
    model: Option<RandomForest>,
}

/// Streaming IP/UDP ML: the 14-feature vector per window, computed
/// incrementally.
pub type IpUdpMlEngine = MlDriver<IpUdpFeatures>;

/// Streaming RTP ML: the 12 flow features over PT-classified video
/// packets plus the 12 RTP features, computed incrementally per window.
pub type RtpMlEngine = MlDriver<RtpFeatures>;

impl<F> MlDriver<F> {
    /// Attaches a trained frame-rate model; its prediction is included in
    /// every report. A cloned forest shares its trees, so flows built from
    /// one forest hold one copy between them.
    pub fn with_model(mut self, model: RandomForest) -> Self {
        self.model = Some(model);
        self
    }
}

impl<F: FeatureSource> MlDriver<F> {
    fn with_source(config: EngineConfig, source: F) -> Self {
        MlDriver {
            source,
            clock: WindowClock::new(config),
            model: None,
        }
    }

    /// The report `window` would seal with now. The features are built
    /// on the stack and predicted from there; the report's copy is the
    /// one allocation a seal makes.
    fn snapshot(&self, window: u64) -> WindowReport {
        let mut buf = [0.0; MAX_FEATURES];
        let features = &mut buf[..F::WIDTH];
        self.source
            .features_into(self.clock.window_secs(), features);
        WindowReport {
            window,
            method: F::METHOD,
            estimate: None,
            model_fps: self.model.as_ref().map(|m| m.predict(features)),
            video_packets: self.source.video_packets(),
            features: Some(features.to_vec()),
        }
    }

    fn seal(&mut self, window: u64, out: &mut Vec<WindowReport>) {
        out.push(self.snapshot(window));
        self.source.reset();
    }
}

impl<F: FeatureSource> QoeEstimator for MlDriver<F> {
    fn method(&self) -> Method {
        F::METHOD
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        match self.clock.tick(pkt.ts) {
            None => return,
            Some(Tick::Start(_)) => {}
            // A packet behind the open window has no window left to count
            // in: the heuristics' rule too.
            Some(Tick::Step { w, from }) if w < from => return,
            Some(Tick::Step { w, from }) => {
                for window in from..w {
                    self.seal(window, out);
                }
            }
            // The in-progress window seals; the gap is skipped without
            // per-window reports.
            Some(Tick::Reanchor { from, .. }) => self.seal(from, out),
        }
        self.source.accept(pkt);
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        if let Some(now) = self.clock.now() {
            self.seal(now, out);
        }
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        let mut features = vec![0.0; F::WIDTH];
        self.source
            .pristine()
            .features_into(self.clock.window_secs(), &mut features);
        WindowReport {
            window,
            method: F::METHOD,
            estimate: None,
            features: Some(features),
            model_fps: None,
            video_packets: 0,
        }
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        if let Some(now) = self.clock.now() {
            out.push(self.snapshot(now));
        }
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.source.heap_bytes()
    }
}

/// Size-threshold classification feeding the IP/UDP feature accumulator.
pub struct IpUdpFeatures {
    classifier: MediaClassifier,
    acc: IpUdpFeatureAcc,
}

impl IpUdpMlEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        MlDriver::with_source(
            config,
            IpUdpFeatures {
                classifier: MediaClassifier::new(config.vmin),
                acc: IpUdpFeatureAcc::new(config.stats, config.theta_iat_us),
            },
        )
    }
}

impl FeatureSource for IpUdpFeatures {
    const METHOD: Method = Method::IpUdpMl;

    fn accept(&mut self, pkt: &TracePacket) {
        if self.classifier.is_video(pkt) {
            self.acc.push(pkt.ts, pkt.size);
        }
    }

    const WIDTH: usize = IpUdpFeatureAcc::WIDTH;

    fn features_into(&self, window_secs: f64, out: &mut [f64]) {
        self.acc.features_into(window_secs, out);
    }

    fn video_packets(&self) -> usize {
        self.acc.packets() as usize
    }

    fn reset(&mut self) {
        self.acc.reset();
    }

    fn pristine(&self) -> Self {
        IpUdpFeatures {
            classifier: self.classifier,
            acc: self.acc.fresh(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.acc.state_bytes() - std::mem::size_of::<IpUdpFeatureAcc>()
    }
}

/// Payload-type classification feeding the flow and RTP feature
/// accumulators.
pub struct RtpFeatures {
    payload_map: PayloadMap,
    flow: FlowFeatureAcc,
    rtp: RtpWindowAcc,
    /// The session's lag anchor, set by its first video packet; it spans
    /// windows.
    lag_ref: Option<LagReference>,
    video_packets: usize,
}

impl RtpMlEngine {
    /// Creates an engine; the payload map supplies PT→media classification.
    pub fn new(config: EngineConfig, payload_map: PayloadMap) -> Self {
        MlDriver::with_source(config, RtpFeatures::new(payload_map))
    }
}

impl RtpFeatures {
    fn new(payload_map: PayloadMap) -> Self {
        RtpFeatures {
            payload_map,
            flow: FlowFeatureAcc::new(),
            rtp: RtpWindowAcc::new(),
            lag_ref: None,
            video_packets: 0,
        }
    }
}

impl FeatureSource for RtpFeatures {
    const METHOD: Method = Method::RtpMl;

    fn accept(&mut self, pkt: &TracePacket) {
        let Some(h) = pkt.rtp else {
            return;
        };
        match self.payload_map.classify(h.payload_type) {
            Some(MediaKind::Video) => {
                // The lag clock anchors at the session's first video
                // packet ("we assume that the first frame had zero
                // delay", §3.3).
                self.lag_ref.get_or_insert(LagReference {
                    t0: pkt.ts,
                    ts0: h.timestamp,
                });
                self.flow.push(pkt.ts, pkt.size);
                self.rtp.push_video(pkt.ts, &h);
                self.video_packets += 1;
            }
            Some(MediaKind::VideoRtx) => self.rtp.push_rtx(&h),
            _ => {}
        }
    }

    const WIDTH: usize = MAX_FEATURES;

    fn features_into(&self, window_secs: f64, out: &mut [f64]) {
        let (flow, rtp) = out.split_at_mut(FlowFeatureAcc::WIDTH);
        self.flow.features_into(window_secs, flow);
        self.rtp.features_into(self.lag_ref, rtp);
    }

    fn video_packets(&self) -> usize {
        self.video_packets
    }

    fn reset(&mut self) {
        self.flow.reset();
        self.rtp.reset();
        self.video_packets = 0;
    }

    fn pristine(&self) -> Self {
        RtpFeatures::new(self.payload_map)
    }

    fn heap_bytes(&self) -> usize {
        (self.flow.state_bytes() - std::mem::size_of::<FlowFeatureAcc>())
            + (self.rtp.state_bytes() - std::mem::size_of::<RtpWindowAcc>())
    }
}

// ---------------------------------------------------------------------------
// Replay (batch = streaming)
// ---------------------------------------------------------------------------

/// Replays a trace through an engine and returns exactly
/// `ceil(duration / window_secs)` reports: the batch evaluation as a thin
/// layer over the streaming path. Windows past the end of the stream are
/// padded with [`QoeEstimator::empty_report`]; windows past the nominal
/// duration are dropped (they carry no ground truth).
pub fn replay<E: QoeEstimator + ?Sized>(
    engine: &mut E,
    trace: &Trace,
    window_secs: u32,
) -> Vec<WindowReport> {
    replay_packets(engine, &trace.packets, trace.duration_secs, window_secs)
}

/// [`replay`] over a raw packet list with an explicit nominal duration.
pub fn replay_packets<E: QoeEstimator + ?Sized>(
    engine: &mut E,
    packets: &[TracePacket],
    duration_secs: u32,
    window_secs: u32,
) -> Vec<WindowReport> {
    assert!(window_secs > 0, "zero window");
    let mut reports = Vec::new();
    for p in packets {
        engine.push_into(p, &mut reports);
    }
    engine.finish_into(&mut reports);
    place_windows(engine, reports, duration_secs, window_secs)
}

/// Aligns a finished engine's reports onto the nominal duration grid:
/// engines are anchored at their first packet's window, so each report
/// lands at its absolute index, leading/trailing gaps are padded with
/// [`QoeEstimator::empty_report`], and windows past the nominal duration
/// are dropped (they carry no ground truth). The placement half of
/// [`replay_packets`], shared with [`crate::pipeline::build_samples`],
/// which feeds each trace through several engines in one pass and places
/// each engine's reports through here.
pub fn place_windows<E: QoeEstimator + ?Sized>(
    engine: &E,
    reports: Vec<WindowReport>,
    duration_secs: u32,
    window_secs: u32,
) -> Vec<WindowReport> {
    assert!(window_secs > 0, "zero window");
    let n = duration_secs.div_ceil(window_secs) as usize;
    let mut slots: Vec<Option<WindowReport>> = (0..n).map(|_| None).collect();
    for r in reports {
        let w = r.window as usize;
        if w < n {
            debug_assert!(slots[w].is_none(), "duplicate report for window {w}");
            slots[w] = Some(r);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(w, slot)| slot.unwrap_or_else(|| engine.empty_report(w as u64)))
        .collect()
}

// ---------------------------------------------------------------------------
// FlowTable
// ---------------------------------------------------------------------------

/// A flow-keyed table of per-flow estimators: one process monitoring
/// many concurrent VCA calls.
///
/// Packets are routed by canonical UDP 5-tuple to a per-flow engine
/// created on first sight by the factory. The table is one
/// **open-addressed** linear-probe index over one dense entry slab: a
/// lookup is one cheap multiplicative hash ([`FlowKey::hash64`]), a few
/// contiguous slot probes, and one slab access — no SipHash, no
/// per-entry allocation, and eviction recycles slots in place. The
/// hashed entry points (`*_hashed`) let callers that already computed
/// the flow hash (the facade hashes once per packet for worker routing)
/// skip rehashing. Idle flows are evicted — flushing their final
/// windows — so memory is O(active flows), each O(window content).
///
/// Expiry is a deadline schedule, not a scan: a lazy min-heap of
/// `(due, hash)` items, one pushed when a flow is inserted, where
/// `due = last_seen + idle_timeout`. The per-packet `last_seen` update
/// leaves the heap alone; [`Self::evict_idle`] pops only the items
/// that are due, evicts the flows that really are idle, and re-pushes the
/// rest at their current due time. Called on every packet, it seals a
/// flow by the first call whose `now` passes `last_seen + idle_timeout`.
///
/// Hash-bit usage across the routing layers (one hash per packet):
/// workers take `hash64 % n_threads` (low bits), slot probing starts
/// from bits 16.. — so the two layers stay uncorrelated.
pub struct FlowTable<E> {
    /// Power-of-two probe table of indices into `entries`
    /// ([`EMPTY_SLOT`] when unoccupied).
    slots: Vec<u32>,
    /// Dense entry slab (`swap_remove` keeps it dense; each entry
    /// remembers its slot so moves can be patched).
    entries: Vec<FlowEntry<E>>,
    factory: Box<dyn FnMut(&FlowKey) -> E + Send>,
    idle_timeout_us: i64,
    /// Min-heap of `(due_us, hash)`. Each tracked flow has one item,
    /// whose due time its entry records as a [`due_tag`]; items left
    /// behind by removals and re-inserts match no entry and die when
    /// popped.
    schedule: BinaryHeap<Reverse<(i64, u64)>>,
    /// Upper bound on every tracked flow's `last_seen` (µs), exact after
    /// each reschedule. A flow last seen beyond `now + idle_timeout`
    /// must be reclaimed at once, which its due time cannot say: when
    /// this bound passes `now + idle_timeout`, the schedule is rebuilt.
    max_seen_us: i64,
}

struct FlowEntry<E> {
    key: FlowKey,
    hash: u64,
    /// Index of this entry's slot in the probe table.
    slot: u32,
    engine: E,
    last_seen: Timestamp,
    /// [`due_tag`] of this flow's one schedule item.
    due_tag: u32,
}

/// What a flow entry records of its schedule item's due time: the low
/// 32 bits, which fit in the entry's padding. They tell the item from
/// the leftovers of removals and re-inserts, except a leftover with the
/// same hash due a multiple of 2³² µs (≈ 72 min) away. Popping that one
/// re-checks the flow's idleness and, if it is live, re-pushes its item,
/// after which its old item matches nothing: no wrong eviction, no extra
/// item.
fn due_tag(due_us: i64) -> u32 {
    due_us as u32
}

/// Seals a flow taken out of a table: its key and final windows.
fn sealed<E: QoeEstimator>((key, mut engine): (FlowKey, E)) -> (FlowKey, Vec<WindowReport>) {
    let mut tail = Vec::new();
    engine.finish_into(&mut tail);
    (key, tail)
}

impl<E> FlowEntry<E> {
    /// The entry's key and its unfinished engine.
    fn into_parts(self) -> (FlowKey, E) {
        (self.key, self.engine)
    }

    /// Advances `last_seen` toward `ts` by at most one idle timeout and
    /// returns it (µs): a corrupt far-future timestamp (which the engine
    /// quarantines) then delays eviction by at most one timeout instead
    /// of marking a healthy flow as "from the future" and getting it
    /// evicted — or, with a plain max, pinning it forever.
    #[inline]
    fn see(&mut self, ts: Timestamp, idle_us: i64) -> i64 {
        let bound = self.last_seen.as_micros().saturating_add(idle_us);
        self.last_seen = self.last_seen.max(ts.min(Timestamp::from_micros(bound)));
        self.last_seen.as_micros()
    }
}

/// Sentinel for an unoccupied probe slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// The probe start of `hash` in a table of `mask + 1` slots: bits 16..,
/// because the low bits route workers.
#[inline]
fn home(hash: u64, mask: usize) -> usize {
    (hash >> 16) as usize & mask
}

impl<E> FlowTable<E> {
    /// Creates a table with a per-flow engine factory and an idle timeout
    /// after which flows are evictable.
    ///
    /// `shards` is a benchmark-pinned vestige: `benchmark/src/layers.rs`
    /// passes a shard count from when a table split its flows across
    /// inner shards. It must be ≥ 1 and is otherwise ignored; the next
    /// `[benchmark]`-typed change drops it.
    pub fn new(
        shards: usize,
        idle_timeout: Timestamp,
        factory: impl FnMut(&FlowKey) -> E + Send + 'static,
    ) -> Self {
        assert!(shards >= 1, "zero shards");
        assert!(idle_timeout.as_micros() > 0, "non-positive idle timeout");
        FlowTable {
            slots: Vec::new(),
            entries: Vec::new(),
            factory: Box::new(factory),
            idle_timeout_us: idle_timeout.as_micros(),
            schedule: BinaryHeap::new(),
            max_seen_us: i64::MIN,
        }
    }

    /// The slot of the first entry in `hash`'s probe run that carries
    /// that hash and satisfies `is`, if any. Every entry in the run is
    /// checked: two keys may share a hash.
    #[inline]
    fn probe(&self, hash: u64, is: impl Fn(&FlowEntry<E>) -> bool) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(hash, mask);
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            let e = &self.entries[s as usize];
            if e.hash == hash && is(e) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds the slot holding `key`, if present.
    #[inline]
    fn find_slot(&self, hash: u64, key: &FlowKey) -> Option<usize> {
        self.probe(hash, |e| e.key == *key)
    }

    /// Index into `entries` for `key`, if present.
    #[inline]
    fn find(&self, hash: u64, key: &FlowKey) -> Option<usize> {
        self.find_slot(hash, key)
            .map(|slot| self.slots[slot] as usize)
    }

    /// Grows (or initializes) the probe table and re-places every entry.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(new_cap, EMPTY_SLOT);
        let mask = new_cap - 1;
        for (idx, e) in self.entries.iter_mut().enumerate() {
            let mut i = home(e.hash, mask);
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
            e.slot = i as u32;
        }
    }

    /// Inserts a new entry (caller guarantees the key is absent and
    /// schedules it under `due_tag`), returning its index in `entries`.
    fn insert_new(
        &mut self,
        key: FlowKey,
        hash: u64,
        engine: E,
        last_seen: Timestamp,
        due_tag: u32,
    ) -> usize {
        // Keep load ≤ 7/8 so probe runs stay short.
        if self.slots.is_empty() || (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = home(hash, mask);
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        let idx = self.entries.len();
        self.slots[i] = idx as u32;
        self.entries.push(FlowEntry {
            key,
            hash,
            slot: i as u32,
            engine,
            last_seen,
            due_tag,
        });
        idx
    }

    /// Removes the entry at `slot`, backward-shifting the probe run to
    /// keep lookups tombstone-free, and returns the entry.
    fn remove_slot(&mut self, slot: usize) -> FlowEntry<E> {
        let mask = self.slots.len() - 1;
        let idx = self.slots[slot] as usize;
        // Backward-shift deletion: close the hole by moving any later
        // entry in the probe run whose home position is at or before the
        // hole.
        let mut hole = slot;
        let mut j = slot;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY_SLOT {
                break;
            }
            let dist_home = j.wrapping_sub(home(self.entries[s as usize].hash, mask)) & mask;
            let dist_hole = j.wrapping_sub(hole) & mask;
            if dist_home >= dist_hole {
                self.slots[hole] = s;
                self.entries[s as usize].slot = hole as u32;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        // Keep the slab dense; patch the moved entry's slot pointer.
        let entry = self.entries.swap_remove(idx);
        if idx < self.entries.len() {
            let moved_slot = self.entries[idx].slot as usize;
            self.slots[moved_slot] = idx as u32;
        }
        entry
    }

    /// Pushes the schedule item of a flow last seen at `last_seen_us`,
    /// returning the [`due_tag`] for its entry to record.
    fn enqueue(&mut self, hash: u64, last_seen_us: i64) -> u32 {
        let due_us = last_seen_us.saturating_add(self.idle_timeout_us);
        self.schedule.push(Reverse((due_us, hash)));
        self.max_seen_us = self.max_seen_us.max(last_seen_us);
        due_tag(due_us)
    }

    /// Inserts a pre-built engine for `key` (whose [`FlowKey::hash64`] the
    /// caller already computed), replacing any existing one, and returns
    /// the stored engine. The facade inserts every flow this way, because
    /// what it stores depends on more than the key (the method, or
    /// RTP-confidence probation); [`Self::push_hashed_into`] inserts what
    /// the factory builds.
    pub(crate) fn insert_hashed(
        &mut self,
        hash: u64,
        key: FlowKey,
        engine: E,
        last_seen: Timestamp,
    ) -> &mut E {
        let due_tag = self.enqueue(hash, last_seen.as_micros());
        let idx = match self.find(hash, &key) {
            Some(idx) => {
                // The replaced engine's item no longer matches and dies
                // when popped.
                let e = &mut self.entries[idx];
                e.engine = engine;
                e.last_seen = last_seen;
                e.due_tag = due_tag;
                idx
            }
            None => self.insert_new(key, hash, engine, last_seen, due_tag),
        };
        &mut self.entries[idx].engine
    }

    /// Mutable access to a flow's engine, if tracked, advancing the flow's
    /// `last_seen` toward `ts` (bounded by one idle timeout per call) —
    /// the per-packet lookup, which needs the entry's bookkeeping hot
    /// before pushing.
    pub(crate) fn get_mut_seen_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        ts: Timestamp,
    ) -> Option<&mut E> {
        let idx = self.find(hash, key)?;
        let entry = &mut self.entries[idx];
        self.max_seen_us = self.max_seen_us.max(entry.see(ts, self.idle_timeout_us));
        Some(&mut entry.engine)
    }

    /// Removes a flow's engine without finishing it; the caller owns any
    /// remaining flush. The flow's schedule item dies when popped.
    pub(crate) fn remove_hashed(&mut self, hash: u64, key: &FlowKey) -> Option<E> {
        self.find_slot(hash, key)
            .map(|slot| self.remove_slot(slot).engine)
    }

    /// [`Self::evict_idle`] one flow at a time, without finishing: takes
    /// out the next idle flow in due order, its key and unfinished engine
    /// for the caller to seal, or `None` when no flow is due. Only due
    /// schedule items are touched, so a call with nothing due allocates
    /// nothing and costs two comparisons.
    pub(crate) fn pop_idle(&mut self, now: Timestamp) -> Option<(FlowKey, E)> {
        let now_us = now.as_micros();
        let idle = self.idle_timeout_us;
        let future_bound = now_us.saturating_add(idle);
        if self.max_seen_us > future_bound {
            self.reschedule(future_bound);
        }
        while let Some(&Reverse((due_us, hash))) = self.schedule.peek() {
            if due_us >= now_us {
                break;
            }
            self.schedule.pop();
            let Some(slot) = self.probe(hash, |e| e.due_tag == due_tag(due_us)) else {
                continue;
            };
            let entry = &mut self.entries[self.slots[slot] as usize];
            let last_us = entry.last_seen.as_micros();
            if last_us.saturating_add(idle) < now_us || last_us > future_bound {
                return Some(self.remove_slot(slot).into_parts());
            }
            // Seen since it was scheduled: due again, at or after `now`,
            // so this loop stops at it.
            let due_us = last_us.saturating_add(idle);
            entry.due_tag = due_tag(due_us);
            self.schedule.push(Reverse((due_us, hash)));
        }
        None
    }

    /// Rebuilds the schedule from the entry slab in one pass, with every
    /// flow last seen beyond `future_bound` due at once. Needed only when
    /// `now` falls behind the schedule (the stream clock re-anchored
    /// backward, or a flow was opened by a far-future timestamp); it also
    /// drops every item that matched no entry.
    fn reschedule(&mut self, future_bound: i64) {
        let idle = self.idle_timeout_us;
        let mut items = std::mem::take(&mut self.schedule).into_vec();
        items.clear();
        self.max_seen_us = i64::MIN;
        for e in &mut self.entries {
            let last_us = e.last_seen.as_micros();
            let due_us = if last_us > future_bound {
                i64::MIN
            } else {
                self.max_seen_us = self.max_seen_us.max(last_us);
                last_us.saturating_add(idle)
            };
            e.due_tag = due_tag(due_us);
            items.push(Reverse((due_us, e.hash)));
        }
        self.schedule = BinaryHeap::from(items);
    }

    /// Visits every tracked flow's engine mutably, in unspecified order
    /// (the facade's forced provisional flush walks all flows at once).
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&FlowKey, &mut E)) {
        for entry in &mut self.entries {
            f(&entry.key, &mut entry.engine);
        }
    }

    /// Every tracked flow's key, in unspecified order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = FlowKey> + '_ {
        self.entries.iter().map(|e| e.key)
    }

    /// Number of currently tracked flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total resident bytes of tracked-flow state: the expiry schedule,
    /// the probe table, the entry slab, and what `engine_bytes` says
    /// each entry's engine holds beyond its slab slot — the numerator of
    /// the monitor's bytes-per-flow gauge.
    pub(crate) fn state_bytes(&self, engine_bytes: impl Fn(&E) -> usize) -> usize {
        self.schedule.capacity() * std::mem::size_of::<Reverse<(i64, u64)>>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<FlowEntry<E>>()
            + self
                .entries
                .iter()
                .map(|e| engine_bytes(&e.engine))
                .sum::<usize>()
    }
}

/// The entry points that run the engines themselves, for callers whose
/// table holds bare engines: the factory creates one on first sight, and
/// eviction hands back each flow's final windows.
impl<E: QoeEstimator> FlowTable<E> {
    /// Routes one packet to its flow's engine (creating it on first
    /// sight), appending that flow's finalized windows into `out` — the
    /// zero-alloc per-packet entry point. `hash` is the key's
    /// [`FlowKey::hash64`].
    pub fn push_hashed_into(
        &mut self,
        hash: u64,
        key: FlowKey,
        pkt: &TracePacket,
        out: &mut Vec<WindowReport>,
    ) {
        if let Some(engine) = self.get_mut_seen_hashed(hash, &key, pkt.ts) {
            engine.push_into(pkt, out);
            return;
        }
        let engine = (self.factory)(&key);
        self.insert_hashed(hash, key, engine, pkt.ts)
            .push_into(pkt, out);
    }

    /// Evicts every flow idle longer than the timeout at `now` — last
    /// seen before `now - idle_timeout` — returning each one's key and
    /// remaining windows in due order. A flow whose last packet claims to
    /// be from beyond `now + idle_timeout` carries a corrupt timestamp and
    /// is reclaimed too, rather than pinning memory forever.
    pub fn evict_idle(&mut self, now: Timestamp) -> Vec<(FlowKey, Vec<WindowReport>)> {
        std::iter::from_fn(|| self.pop_idle(now))
            .map(sealed)
            .collect()
    }

    /// Finishes every flow (end of capture) in place, returning each
    /// flow's remaining windows sorted by flow and leaving the table
    /// empty but reusable. This is the shape a shard worker needs — it
    /// owns its table inside long-lived state and seals flows at end of
    /// stream without moving out of itself.
    pub fn drain_finish_all(&mut self) -> Vec<(FlowKey, Vec<WindowReport>)> {
        self.schedule.clear();
        self.max_seen_us = i64::MIN;
        self.slots.clear();
        let mut out: Vec<_> = self
            .entries
            .drain(..)
            .map(|entry| sealed(entry.into_parts()))
            .collect();
        out.sort_by_key(|(k, _)| (k.addr_a, k.port_a, k.addr_b, k.port_b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn config() -> EngineConfig {
        EngineConfig::paper(VcaKind::Teams)
    }

    fn pkt(us: i64, size: u16) -> TracePacket {
        TracePacket {
            ts: Timestamp::from_micros(us),
            size,
            rtp: None,
            truth_media: None,
        }
    }

    /// 30 fps, two equal-size packets per frame with per-frame size
    /// variation so boundaries are detectable, plus audio in between.
    fn synthetic_stream(secs: i64) -> Vec<TracePacket> {
        let mut out = Vec::new();
        for f in 0..secs * 30 {
            let t0 = f * 33_333;
            let size = 1000 + ((f % 9) * 13) as u16;
            out.push(pkt(t0, size));
            out.push(pkt(t0 + 300, size));
            out.push(pkt(t0 + 10_000, 150)); // audio (filtered out)
        }
        out.sort_by_key(|p| p.ts);
        out
    }

    fn run<E: QoeEstimator>(engine: &mut E, packets: &[TracePacket]) -> Vec<WindowReport> {
        let mut reports = Vec::new();
        for p in packets {
            engine.push_into(p, &mut reports);
        }
        engine.finish_into(&mut reports);
        reports
    }

    /// The windows one packet finalizes.
    fn push<E: QoeEstimator>(engine: &mut E, p: &TracePacket) -> Vec<WindowReport> {
        let mut reports = Vec::new();
        engine.push_into(p, &mut reports);
        reports
    }

    /// The windows end of stream flushes.
    fn finish<E: QoeEstimator>(engine: &mut E) -> Vec<WindowReport> {
        let mut reports = Vec::new();
        engine.finish_into(&mut reports);
        reports
    }

    /// Every engine refuses a window whose gaps an ML flow's `i32` log
    /// could not hold, as the builder does.
    #[test]
    #[should_panic(expected = "outside 1..=2147")]
    fn an_engine_refuses_a_window_past_the_bound() {
        let config = EngineConfig {
            window_secs: MAX_WINDOW_SECS + 1,
            ..EngineConfig::paper(VcaKind::Teams)
        };
        let _ = IpUdpMlEngine::new(config);
    }

    /// Routes one packet through a table, returning its flow's windows.
    fn table_push<E: QoeEstimator>(
        table: &mut FlowTable<E>,
        key: FlowKey,
        p: &TracePacket,
    ) -> Vec<WindowReport> {
        let mut reports = Vec::new();
        table.push_hashed_into(key.hash64(), key, p, &mut reports);
        reports
    }

    #[test]
    fn heuristic_engine_windows_are_consecutive() {
        let stream = synthetic_stream(5);
        let reports = run(&mut IpUdpHeuristicEngine::new(config()), &stream);
        assert_eq!(reports.len(), 5);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.window, i as u64);
            assert_eq!(r.method, Method::IpUdpHeuristic);
        }
    }

    /// A flow that carries no video holds no heap: no frame-assembly
    /// buffers, no drain scratch, however many windows it reports.
    #[test]
    fn ipudp_heuristic_without_video_holds_no_heap() {
        let mut engine = IpUdpHeuristicEngine::new(config());
        let bare = std::mem::size_of::<IpUdpHeuristicEngine>();
        assert_eq!(engine.state_bytes(), bare);
        let mut reports = Vec::new();
        for i in 0..400 {
            let below_vmin = crate::media::DEFAULT_VMIN - 1 - (i % 200) as u16;
            engine.push_into(&pkt(i * 10_000, below_vmin), &mut reports);
            assert_eq!(engine.state_bytes(), bare, "after packet {i}");
        }
        engine.finish_into(&mut reports);
        assert_eq!(engine.state_bytes(), bare);
        assert_eq!(reports.len(), 4, "the flow still reports its windows");
    }

    /// The heuristic engines' own sizes, which every such flow's table
    /// slot holds before it carries anything.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn heuristic_engines_stay_small() {
        let ipudp = std::mem::size_of::<IpUdpHeuristicEngine>();
        assert!(ipudp <= 224, "IpUdpHeuristicEngine is {ipudp} B");
        let rtp = std::mem::size_of::<RtpHeuristicEngine>();
        assert!(rtp <= 184, "RtpHeuristicEngine is {rtp} B");
    }

    #[test]
    fn heuristic_engine_matches_batch_exactly() {
        let stream = synthetic_stream(4);
        let reports = run(&mut IpUdpHeuristicEngine::new(config()), &stream);
        // Independent batch path: classify, assemble the whole trace,
        // then bucket every frame by end time.
        let mut asm = IpUdpAssembler::new(config().heuristic);
        let mut frames = Vec::new();
        for p in stream
            .iter()
            .filter(|p| p.size >= crate::media::DEFAULT_VMIN)
        {
            asm.push_into(p.ts, p.size, &mut frames);
        }
        asm.finish_into(&mut frames);
        let mut windower = QoeWindower::new(1);
        windower.sealed().append(&mut frames);
        let mut batch = Vec::new();
        windower.drain_until(4, |w, e, _| batch.push((w, e)));
        assert_eq!(reports.len(), batch.len());
        for (r, (w, b)) in reports.iter().zip(&batch) {
            assert_eq!((r.window, r.estimate.unwrap()), (*w, *b));
        }
        for r in &reports {
            let fps = r.estimate.unwrap().fps;
            assert!((fps - 30.0).abs() <= 2.0, "fps {fps}");
        }
    }

    #[test]
    fn idle_gap_emits_empty_windows() {
        let mut engine = IpUdpHeuristicEngine::new(config());
        push(&mut engine, &pkt(100_000, 1100));
        let reports = push(&mut engine, &pkt(3_100_000, 1100));
        // The second packet matches the open frame (same size within Δ),
        // pulling its end into window 3 — exactly what the batch
        // assembler does — so windows 0..=2 are all final and empty.
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].video_packets, 1); // arrival count stays put
        for r in &reports {
            assert_eq!(r.estimate.unwrap().fps, 0.0);
        }
    }

    #[test]
    fn negative_timestamps_dropped() {
        let mut engine = IpUdpMlEngine::new(config());
        assert!(push(&mut engine, &pkt(-5_000, 1100)).is_empty());
        let reports = run(&mut engine, &synthetic_stream(1));
        assert_eq!(reports.len(), 1);
        // The negative-time packet contributed nothing.
        assert_eq!(reports[0].video_packets, 60);
    }

    #[test]
    fn assembler_memory_stays_bounded() {
        let mut engine = IpUdpHeuristicEngine::new(config());
        // An hour of adversarial all-distinct sizes.
        for i in 0..200_000i64 {
            let size = 450 + (i % 900) as u16;
            push(&mut engine, &pkt(i * 18_000, size));
        }
        assert!(engine.source.assembler.open_frames() <= config().heuristic.lookback + 1);
    }

    #[test]
    fn late_flow_anchors_at_first_packet_window() {
        // A flow first seen an hour into the capture must not flood the
        // caller with ~3600 empty windows.
        let hour_us = 3_600i64 * 1_000_000;
        let mut heur = IpUdpHeuristicEngine::new(config());
        assert!(push(&mut heur, &pkt(hour_us + 1_000, 1100)).is_empty());
        // Two more non-matching packets seal the first frame (lookback 2),
        // making window 3600 final — and only then is it emitted.
        assert!(push(&mut heur, &pkt(hour_us + 1_100_000, 1000)).is_empty());
        let reports = push(&mut heur, &pkt(hour_us + 1_200_000, 900));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window, 3_600);

        let mut ml = IpUdpMlEngine::new(config());
        assert!(push(&mut ml, &pkt(hour_us + 1_000, 1100)).is_empty());
        let reports = push(&mut ml, &pkt(hour_us + 1_100_000, 1000));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window, 3_600);
        let tail = finish(&mut ml);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].window, 3_601);
    }

    #[test]
    fn corrupt_timestamp_dropped_and_engine_recovers() {
        // A single packet with an absurd timestamp (a mangled pcap
        // record) is quarantined — no window flood, and the flow keeps
        // reporting correctly once sane packets resume.
        let year_us = 365 * 24 * 3_600i64 * 1_000_000;
        let mut clean = IpUdpHeuristicEngine::new(config());
        let mut dirty = IpUdpHeuristicEngine::new(config());
        let stream = synthetic_stream(4);
        let mut clean_reports = Vec::new();
        let mut dirty_reports = Vec::new();
        for (i, p) in stream.iter().enumerate() {
            if i == stream.len() / 2 {
                // The corrupt packet is dropped, emitting nothing.
                assert!(push(&mut dirty, &pkt(year_us, 800)).is_empty());
            }
            clean.push_into(p, &mut clean_reports);
            dirty.push_into(p, &mut dirty_reports);
        }
        clean.finish_into(&mut clean_reports);
        dirty.finish_into(&mut dirty_reports);
        assert_eq!(clean_reports.len(), dirty_reports.len());
        for (c, d) in clean_reports.iter().zip(&dirty_reports) {
            assert_eq!(c.window, d.window);
            assert_eq!(c.estimate.unwrap(), d.estimate.unwrap());
        }

        let mut ml = IpUdpMlEngine::new(config());
        push(&mut ml, &pkt(0, 1100));
        assert!(
            push(&mut ml, &pkt(year_us, 800)).is_empty(),
            "outlier dropped"
        );
        // Sane traffic continues in the original epoch.
        let reports = push(&mut ml, &pkt(1_100_000, 1000));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window, 0);
    }

    #[test]
    fn corrupt_first_timestamp_recovers_backward() {
        // A mangled timestamp on the very first packet anchors the flow
        // at a bogus epoch; sane traffic "in the past" must quarantine
        // that epoch and re-anchor backward instead of being silently
        // dropped forever.
        let year_us = 365 * 24 * 3_600i64 * 1_000_000;
        let mut heur = IpUdpHeuristicEngine::new(config());
        push(&mut heur, &pkt(year_us, 800));
        let stream = synthetic_stream(3);
        let mut reports = Vec::new();
        for p in &stream {
            heur.push_into(p, &mut reports);
        }
        heur.finish_into(&mut reports);
        // Windows 0..=2 of the sane epoch come out (the corrupt epoch's
        // lone frame flushes at a far-future index and is discarded here).
        let sane: Vec<_> = reports.iter().filter(|r| r.window < 10).collect();
        assert_eq!(sane.len(), 3, "sane windows: {reports:?}");
        for r in &sane {
            let fps = r.estimate.unwrap().fps;
            assert!(r.window >= 1 || fps > 0.0 || r.video_packets > 0);
        }

        let mut ml = IpUdpMlEngine::new(config());
        push(&mut ml, &pkt(year_us, 800));
        let mut reports = Vec::new();
        for p in &stream {
            ml.push_into(p, &mut reports);
        }
        ml.finish_into(&mut reports);
        let sane: Vec<_> = reports.iter().filter(|r| r.window < 10).collect();
        assert_eq!(sane.len(), 3, "sane ML windows");
        assert!(sane.iter().all(|r| r.video_packets > 0));
    }

    #[test]
    fn corroborated_discontinuity_reanchors() {
        // Several packets agreeing on a far-future epoch constitute a
        // genuine capture discontinuity: the engine flushes, skips the
        // gap without per-window reports, and resumes at the new epoch.
        // Two hours exceeds MAX_WINDOW_GAP (4096 one-second windows).
        let jump_us = 2 * 3_600i64 * 1_000_000;
        let mut ml = IpUdpMlEngine::new(config());
        push(&mut ml, &pkt(0, 1100));
        assert!(push(&mut ml, &pkt(jump_us, 1000)).is_empty());
        assert!(push(&mut ml, &pkt(jump_us + 1_000, 1000)).is_empty());
        let reports = push(&mut ml, &pkt(jump_us + 2_000, 1000));
        // The corroborating packet finalizes the old in-progress window…
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window, 0);
        // …and emission resumes at the new epoch.
        let tail = finish(&mut ml);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].window, 7_200);
    }

    /// `frames` video frames of two packets each at 30 fps from
    /// `start_us`, RTP-numbered from frame `first` so all four methods
    /// see them as video.
    fn video_frames(first: i64, frames: i64, start_us: i64) -> Vec<TracePacket> {
        let mut out = Vec::new();
        for f in first..first + frames {
            let t0 = start_us + (f - first) * 33_333;
            let size = 1000 + ((f % 9) * 13) as u16;
            for i in 0..2u16 {
                out.push(TracePacket {
                    ts: Timestamp::from_micros(t0 + i64::from(i) * 300),
                    size,
                    rtp: Some(vcaml_rtp::RtpHeader::basic(
                        102,
                        (f * 2) as u16 + i,
                        (f * 3000) as u32,
                        1,
                        i == 1,
                    )),
                    truth_media: None,
                });
            }
        }
        out
    }

    /// Runs a clean 4 s stream and the same stream with a 2 s capture
    /// clock step back after its third second, returning the clean run's
    /// reports and the stepped run's, split at the step.
    fn step_back_runs<E: QoeEstimator>(
        new: impl Fn() -> E,
    ) -> (Vec<WindowReport>, Vec<WindowReport>, Vec<WindowReport>) {
        let (before, after) = (video_frames(0, 90, 0), video_frames(90, 30, 3_000_000));
        let step = video_frames(90, 15, 1_000_000);
        let clean = run(&mut new(), &[before.clone(), after.clone()].concat());
        let mut engine = new();
        let mut emitted = Vec::new();
        for p in &before {
            engine.push_into(p, &mut emitted);
        }
        let rest = run(&mut engine, &[step, after].concat());
        (clean, emitted, rest)
    }

    fn assert_step_back_keeps_emitted_windows<E: QoeEstimator>(new: impl Fn() -> E) {
        let (clean, emitted, rest) = step_back_runs(new);
        let method = clean[0].method;
        assert!(
            !emitted.is_empty(),
            "{method:?}: nothing emitted before the step"
        );
        let dump = |r: &[WindowReport]| format!("{r:?}");
        assert_eq!(dump(&emitted), dump(&clean[..emitted.len()]), "{method:?}");
        let windows: Vec<u64> = emitted.iter().chain(&rest).map(|r| r.window).collect();
        assert_eq!(windows, (0..4).collect::<Vec<_>>(), "{method:?}");
        // The late packets touch no window, the open one included: window
        // 2 reads as in the clean run, 59 video packets (29 frames of two,
        // and the second packet of a frame begun in window 1).
        let two = |r: &&WindowReport| r.window == 2;
        let stepped = emitted.iter().chain(&rest).find(two);
        let clean_two = clean.iter().find(two);
        assert_eq!(
            format!("{stepped:?}"),
            format!("{clean_two:?}"),
            "{method:?}"
        );
        assert_eq!(stepped.map(|r| r.video_packets), Some(59), "{method:?}");
    }

    #[test]
    fn a_clock_step_back_keeps_the_emitted_windows() {
        let map = vcaml_rtp::PayloadMap::lab(VcaKind::Teams);
        assert_step_back_keeps_emitted_windows(|| IpUdpHeuristicEngine::new(config()));
        assert_step_back_keeps_emitted_windows(|| RtpHeuristicEngine::new(config(), map));
        assert_step_back_keeps_emitted_windows(|| IpUdpMlEngine::new(config()));
        assert_step_back_keeps_emitted_windows(|| RtpMlEngine::new(config(), map));
    }

    #[test]
    fn replay_fills_leading_gap_with_empty_windows() {
        // First packet lands in window 3: replay still returns windows
        // 0..n with empty reports up front.
        let packets = vec![
            pkt(3_100_000, 1100),
            pkt(3_200_000, 1000),
            pkt(3_300_000, 900),
        ];
        let reports = replay_packets(&mut IpUdpMlEngine::new(config()), &packets, 5, 1);
        assert_eq!(reports.len(), 5);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.window, i as u64);
        }
        assert_eq!(reports[0].video_packets, 0);
        assert_eq!(reports[3].video_packets, 3);
        // Leading empties equal the engine's own empty-window vector.
        let empty = IpUdpMlEngine::new(config()).empty_report(0);
        assert_eq!(reports[0].features, empty.features);
    }

    #[test]
    fn replay_pads_and_truncates_to_duration() {
        let mut engine = IpUdpHeuristicEngine::new(config());
        let reports = replay_packets(&mut engine, &synthetic_stream(2), 6, 1);
        assert_eq!(reports.len(), 6);
        assert!(reports[5].video_packets == 0);
        let mut engine = IpUdpMlEngine::new(config());
        let reports = replay_packets(&mut engine, &synthetic_stream(4), 2, 1);
        assert_eq!(reports.len(), 2);
    }

    fn flow_key(n: u8) -> FlowKey {
        let client = IpAddr::V4(Ipv4Addr::new(10, 0, 0, n));
        let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
        FlowKey::canonical(server, 3478, client, 50_000 + u16::from(n), 17).0
    }

    #[test]
    fn flow_table_separates_interleaved_flows() {
        // Flow 1: the synthetic stream. Flow 2: the same shape shifted in
        // size so its windows differ.
        let a = synthetic_stream(3);
        let b: Vec<TracePacket> = a
            .iter()
            .map(|p| pkt(p.ts.as_micros() + 7, p.size.saturating_add(200)))
            .collect();
        let mut feed: Vec<(FlowKey, TracePacket)> = a
            .iter()
            .map(|p| (flow_key(1), *p))
            .chain(b.iter().map(|p| (flow_key(2), *p)))
            .collect();
        feed.sort_by_key(|(_, p)| p.ts);

        let mut table = FlowTable::new(1, Timestamp::from_secs(60), |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config())
        });
        let mut per_flow: std::collections::HashMap<FlowKey, Vec<WindowReport>> =
            std::collections::HashMap::new();
        for (key, p) in &feed {
            per_flow
                .entry(*key)
                .or_default()
                .extend(table_push(&mut table, *key, p));
        }
        assert_eq!(table.len(), 2);
        for (key, rest) in table.drain_finish_all() {
            per_flow.entry(key).or_default().extend(rest);
        }

        // Each flow's reports equal a solo run of the same packets.
        let solo_a = run(&mut IpUdpHeuristicEngine::new(config()), &a);
        let solo_b = run(&mut IpUdpHeuristicEngine::new(config()), &b);
        for (solo, key) in [(&solo_a, flow_key(1)), (&solo_b, flow_key(2))] {
            let got = &per_flow[&key];
            assert_eq!(got.len(), solo.len());
            for (g, s) in got.iter().zip(solo.iter()) {
                assert_eq!(g.window, s.window);
                assert_eq!(g.estimate.unwrap(), s.estimate.unwrap());
            }
        }
    }

    #[test]
    fn flow_table_evicts_idle_flows() {
        let mut table = FlowTable::new(1, Timestamp::from_secs(5), |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config())
        });
        table_push(&mut table, flow_key(1), &pkt(0, 1100));
        table_push(&mut table, flow_key(2), &pkt(9_000_000, 1100));
        assert_eq!(table.len(), 2);
        let evicted = table.evict_idle(Timestamp::from_secs(10));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, flow_key(1));
        assert!(!evicted[0].1.is_empty(), "eviction flushes final windows");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn flow_table_expires_a_flow_one_microsecond_past_its_timeout() {
        let mut table = FlowTable::new(1, Timestamp::from_secs(5), |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config())
        });
        table_push(&mut table, flow_key(1), &pkt(1_000_000, 1100));
        table_push(&mut table, flow_key(1), &pkt(2_000_000, 1100));
        // Scheduled at its first packet; the second moved its deadline.
        assert!(table
            .evict_idle(Timestamp::from_micros(6_000_001))
            .is_empty());
        assert!(table
            .evict_idle(Timestamp::from_micros(7_000_000))
            .is_empty());
        let evicted = table.evict_idle(Timestamp::from_micros(7_000_001));
        assert_eq!(evicted.len(), 1);
        assert!(table.is_empty());
        assert!(table.schedule.is_empty(), "the popped item is gone");
    }

    #[test]
    fn flow_table_state_bytes_counts_the_schedule() {
        let mut table = FlowTable::new(1, Timestamp::from_secs(5), |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config())
        });
        for n in 0..100 {
            table_push(&mut table, flow_key(n), &pkt(0, 1100));
        }
        let rest = table.slots.capacity() * std::mem::size_of::<u32>()
            + table.entries.capacity() * std::mem::size_of::<FlowEntry<IpUdpHeuristicEngine>>()
            + table
                .entries
                .iter()
                .map(|e| e.engine.state_bytes())
                .sum::<usize>();
        assert!(table.schedule.capacity() >= 100);
        assert_eq!(
            table.state_bytes(QoeEstimator::state_bytes),
            rest + table.schedule.capacity() * 16
        );
    }

    /// The rule the schedule reproduces, as the scan of every entry that
    /// it replaced: evict flows last seen before `now - idle_timeout` or
    /// after `now + idle_timeout`.
    fn evict_idle_by_scan<E: QoeEstimator>(
        table: &mut FlowTable<E>,
        now: Timestamp,
    ) -> Vec<(FlowKey, Vec<WindowReport>)> {
        let deadline = now.as_micros() - table.idle_timeout_us;
        let future_bound = now.as_micros().saturating_add(table.idle_timeout_us);
        let mut out = Vec::new();
        let mut idx = 0;
        while idx < table.entries.len() {
            let e = &table.entries[idx];
            if e.last_seen.as_micros() < deadline || e.last_seen.as_micros() > future_bound {
                let slot = e.slot as usize;
                out.push(sealed(table.remove_slot(slot).into_parts()));
            } else {
                idx += 1;
            }
        }
        out
    }

    /// Sealed flows by key, each tail rendered (reports have no
    /// `PartialEq`), so two eviction orders compare as sets.
    fn by_key(mut sealed: Vec<(FlowKey, Vec<WindowReport>)>) -> Vec<(FlowKey, String)> {
        sealed.sort_by_key(|(key, _)| *key);
        sealed
            .into_iter()
            .map(|(key, tail)| (key, format!("{tail:?}")))
            .collect()
    }

    fn last_seen_us<E: QoeEstimator>(
        table: &FlowTable<E>,
        hash: u64,
        key: &FlowKey,
    ) -> Option<i64> {
        table
            .find(hash, key)
            .map(|idx| table.entries[idx].last_seen.as_micros())
    }

    // Two tables take the same inserts, pushes, removals and re-inserts;
    // one evicts by its schedule, the other by a scan. Every eviction call
    // must seal the same flows with the same tails, with `now` stepping
    // backward too and two distinct keys sharing one hash.
    proptest::proptest! {
        #[test]
        fn schedule_evicts_what_a_scan_evicts(
            ops in proptest::collection::vec((0u8..8, 0usize..6, 0i64..1_000), 1..120)
        ) {
            const IDLE_US: i64 = 1_000_000;
            let keys: Vec<FlowKey> = (1..=6).map(flow_key).collect();
            let hash_of = |k: usize| keys[k.min(4)].hash64();
            let new_table = || {
                FlowTable::new(1, Timestamp::from_micros(IDLE_US), |_: &FlowKey| {
                    IpUdpHeuristicEngine::new(config())
                })
            };
            let (mut scheduled, mut scanned) = (new_table(), new_table());
            // `last_seen` of each removed or replaced entry whose schedule
            // item may not have been popped yet.
            let mut unpopped: Vec<i64> = Vec::new();
            let mut clock = 0i64;
            for (op, k, p) in ops {
                let (key, hash) = (keys[k], hash_of(k));
                // Packets land from 1.5 s behind to 3.5 s ahead of the
                // clock; the clock steps from 3 s back to 5 s forward.
                let ts = Timestamp::from_micros((clock + (p - 300) * 5_000).max(0));
                match op {
                    0..=2 => {
                        let (a, b) = (&mut Vec::new(), &mut Vec::new());
                        scheduled.push_hashed_into(hash, key, &pkt(ts.as_micros(), 1100), a);
                        scanned.push_hashed_into(hash, key, &pkt(ts.as_micros(), 1100), b);
                        proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                    }
                    3 => {
                        unpopped.extend(last_seen_us(&scheduled, hash, &key));
                        let engine = || IpUdpHeuristicEngine::new(config());
                        scheduled.insert_hashed(hash, key, engine(), ts);
                        scanned.insert_hashed(hash, key, engine(), ts);
                    }
                    4 => {
                        unpopped.extend(last_seen_us(&scheduled, hash, &key));
                        let a = scheduled.remove_hashed(hash, &key).is_some();
                        let b = scanned.remove_hashed(hash, &key).is_some();
                        proptest::prop_assert_eq!(a, b);
                    }
                    _ => {
                        clock = (clock + (p - 375) * 8_000).max(0);
                        let now = Timestamp::from_micros(clock);
                        let got = by_key(scheduled.evict_idle(now));
                        let want = by_key(evict_idle_by_scan(&mut scanned, now));
                        proptest::prop_assert_eq!(got, want);
                        // An item is due no later than its flow's
                        // `last_seen + idle_timeout`, and due items pop.
                        unpopped.retain(|&last| last + IDLE_US >= clock);
                    }
                }
                proptest::prop_assert_eq!(scheduled.len(), scanned.len());
                proptest::prop_assert!(
                    scheduled.schedule.len() <= scheduled.len() + unpopped.len(),
                    "{} items for {} flows and {} unpopped removals",
                    scheduled.schedule.len(),
                    scheduled.len(),
                    unpopped.len()
                );
            }
        }
    }

    /// One table grown through several probe-table doublings while
    /// random keys are removed and re-inserted: every live key finds its
    /// own engine, the count matches a set model, and the state is one
    /// slot array plus one slab.
    #[test]
    fn flow_table_grows_through_doublings_under_churn() {
        use std::collections::HashSet;
        const FLOWS: u32 = 1 << 15;
        // Each flow's engine records its own key (by creation), so a
        // lookup that lands on another flow's entry shows.
        let mut table = FlowTable::new(1, Timestamp::from_secs(60), |k: &FlowKey| *k);
        let key = |n: u32| {
            let a = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 | n));
            FlowKey::canonical(
                a,
                40_000 + (n % 7) as u16,
                IpAddr::V4(Ipv4Addr::new(10, 255, 0, 1)),
                3478,
                17,
            )
            .0
        };
        let mut live = HashSet::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut doublings = 0;
        for n in 0..FLOWS {
            let k = key(n);
            let before = table.slots.len();
            table.insert_hashed(k.hash64(), k, k, Timestamp::from_micros(i64::from(n)));
            doublings += usize::from(before != 0 && table.slots.len() != before);
            live.insert(k);
            // Every fourth insert, remove a random earlier key; every
            // eighth, re-insert one (removed or live).
            if n % 4 == 3 {
                let k = key((next() % u64::from(n + 1)) as u32);
                assert_eq!(table.remove_hashed(k.hash64(), &k), live.take(&k));
            }
            if n % 8 == 7 {
                let k = key((next() % u64::from(n + 1)) as u32);
                table.insert_hashed(k.hash64(), k, k, Timestamp::from_micros(i64::from(n)));
                live.insert(k);
            }
        }
        assert!(doublings >= 8, "{doublings} doublings");
        assert_eq!(table.len(), live.len());
        for k in &live {
            let got = table.get_mut_seen_hashed(k.hash64(), k, Timestamp::ZERO);
            assert_eq!(got.copied(), Some(*k), "live key found with its own engine");
        }
        for n in 0..FLOWS {
            let k = key(n);
            let found = table
                .get_mut_seen_hashed(k.hash64(), &k, Timestamp::ZERO)
                .is_some();
            assert_eq!(found, live.contains(&k));
        }
        let slots = table.slots.iter().filter(|&&s| s != EMPTY_SLOT).count();
        assert_eq!(slots, live.len(), "one slot per live flow");
        assert_eq!(
            table.state_bytes(|_| 0),
            table.schedule.capacity() * std::mem::size_of::<Reverse<(i64, u64)>>()
                + table.slots.capacity() * std::mem::size_of::<u32>()
                + table.entries.capacity() * std::mem::size_of::<FlowEntry<FlowKey>>()
        );
    }

    #[test]
    fn rtp_engines_consume_rtp_stream() {
        use vcaml_rtp::{PayloadMap, RtpHeader};
        let map = PayloadMap::lab(VcaKind::Teams);
        let mut packets = Vec::new();
        for f in 0..60i64 {
            let t0 = f * 33_333;
            let size = 1100u16;
            for i in 0..2u16 {
                packets.push(TracePacket {
                    ts: Timestamp::from_micros(t0 + i64::from(i) * 300),
                    size,
                    rtp: Some(RtpHeader::basic(
                        102,
                        (f * 2) as u16 + i,
                        (f * 3000) as u32,
                        1,
                        i == 1,
                    )),
                    truth_media: None,
                });
            }
        }
        let mut heur = RtpHeuristicEngine::new(config(), map);
        let reports = run(&mut heur, &packets);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            let fps = r.estimate.unwrap().fps;
            assert!((fps - 30.0).abs() <= 1.0, "fps {fps}");
        }
        let mut ml = RtpMlEngine::new(config(), map);
        let reports = run(&mut ml, &packets);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            let f = r.features.as_deref().unwrap();
            assert_eq!(f.len(), 24);
            // ~30 unique video timestamps per second (±1 for the frame
            // straddling the window boundary).
            assert!((29.0..=31.0).contains(&f[12]), "unique ts {}", f[12]);
        }
    }
}
