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
//! `finish_into` at end of stream. The engines share the incremental
//! building blocks the batch pipeline is itself built from (the
//! assemblers in [`crate::heuristic`] / [`crate::rtp_heuristic`], the
//! [`crate::qoe::QoeWindower`], and the feature accumulators in
//! `vcaml_features::incremental`), so a streaming
//! run reproduces the batch pipeline's numbers exactly — the batch
//! [`crate::pipeline::build_samples`] is in fact a replay over these
//! engines (see [`replay`]).
//!
//! For network-wide deployment, [`FlowTable`] demuxes a mixed packet feed
//! onto per-flow engines keyed by the canonical UDP 5-tuple
//! (`vcaml_netpkt::FlowKey`), sharded for cache locality and future
//! parallelism, with idle-flow eviction so memory tracks the set of
//! *active* calls.
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

    fn window_us(&self) -> i64 {
        i64::from(self.window_secs) * 1_000_000
    }
}

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

/// Verdict for one packet's window index against the flow's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapVerdict {
    /// Within the bounded gap: process normally.
    Normal,
    /// Quarantined outlier: drop the packet.
    Drop,
    /// Corroborated discontinuity: flush, skip, and re-anchor at this
    /// packet's window.
    Reanchor,
}

/// Shared quarantine logic for far-future timestamp jumps.
#[derive(Debug, Clone, Copy, Default)]
struct GapGuard {
    /// `(first suspect window, corroborating packets seen)`.
    suspect: Option<(u64, u32)>,
}

impl GapGuard {
    fn check(&mut self, clock: u64, started: bool, w: u64) -> GapVerdict {
        if !started || w.abs_diff(clock) <= MAX_WINDOW_GAP {
            // Near the established epoch: any earlier outlier was corrupt.
            self.suspect = None;
            return GapVerdict::Normal;
        }
        match self.suspect {
            Some((epoch, seen)) if w.abs_diff(epoch) <= MAX_WINDOW_GAP => {
                if seen + 1 >= DISCONTINUITY_CORROBORATION {
                    self.suspect = None;
                    GapVerdict::Reanchor
                } else {
                    self.suspect = Some((epoch, seen + 1));
                    GapVerdict::Drop
                }
            }
            // First suspect, or a jump that does not cluster with the
            // previous suspect (random corruption): restart quarantine.
            _ => {
                self.suspect = Some((w, 1));
                GapVerdict::Drop
            }
        }
    }
}

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
    /// not counted. Engines that do not account return 0.
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

/// Tracks per-window video-packet counts for reporting. A flow holds
/// counts for at most a handful of pending windows, so a small sorted
/// vector beats a tree map: no per-entry allocation, and the common bump
/// (newest window) is a one-element scan from the back.
#[derive(Debug, Clone, Default)]
struct ArrivalCounts {
    /// `(window, count)` in ascending window order.
    counts: Vec<(u64, usize)>,
}

impl ArrivalCounts {
    fn bump(&mut self, window: u64) {
        match self.counts.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (window, 1)),
        }
    }

    fn take(&mut self, window: u64) -> usize {
        match self.counts.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(i) => self.counts.remove(i).1,
            Err(_) => 0,
        }
    }

    fn peek(&self, window: u64) -> usize {
        match self.counts.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(i) => self.counts[i].1,
            Err(_) => 0,
        }
    }

    /// Drops all counts in place, retaining capacity.
    fn clear(&mut self) {
        self.counts.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<(u64, usize)>()
    }
}

// ---------------------------------------------------------------------------
// Shared per-flow windowing state
// ---------------------------------------------------------------------------

/// Clock, window epoch, and safe-drain logic shared by the two heuristic
/// engines.
///
/// The window *indices* are absolute (window `w` always covers
/// `[w·W, (w+1)·W)` on the capture clock), but emission is **anchored at
/// the first packet the flow sees**: a flow first observed an hour into a
/// capture starts reporting at that hour's window instead of emitting
/// thousands of empty windows from t = 0. Replay fills any leading gap
/// explicitly, so batch outputs are unaffected.
struct HeuristicState {
    windower: QoeWindower,
    counts: ArrivalCounts,
    window_us: i64,
    clock: u64,
    started: bool,
    gap: GapGuard,
    /// One-window memo over the timestamp→index map: consecutive packets
    /// overwhelmingly land in the same window, so the common case is two
    /// compares instead of an `i64` division. `memo_lo > memo_hi` until
    /// the first lookup. (`memo_lo`, `memo_hi`] bound is exclusive.
    memo_lo: i64,
    memo_hi: i64,
    memo_w: u64,
}

impl HeuristicState {
    fn new(config: EngineConfig) -> Self {
        HeuristicState {
            windower: QoeWindower::new(config.window_secs),
            counts: ArrivalCounts::default(),
            window_us: config.window_us(),
            clock: 0,
            started: false,
            gap: GapGuard::default(),
            memo_lo: 1,
            memo_hi: 0,
            memo_w: 0,
        }
    }

    /// Window index for a non-negative microsecond timestamp, memoized
    /// on the window of the previous lookup.
    #[inline]
    fn memo_map(&mut self, us: i64) -> u64 {
        if us >= self.memo_lo && us < self.memo_hi {
            return self.memo_w;
        }
        let w = us.div_euclid(self.window_us);
        self.memo_lo = w * self.window_us;
        self.memo_hi = self.memo_lo + self.window_us;
        self.memo_w = w as u64;
        self.memo_w
    }

    /// Window index for a timestamp, or `None` for negative timestamps
    /// (outside every window).
    #[inline]
    fn window_of(&mut self, ts: Timestamp) -> Option<u64> {
        let us = ts.as_micros();
        (us >= 0).then(|| self.memo_map(us))
    }

    /// Classifies a packet's window against the bounded emission gap
    /// ([`MAX_WINDOW_GAP`]): process, quarantine-drop, or re-anchor.
    fn gap_check(&mut self, w: u64) -> GapVerdict {
        self.gap.check(self.clock, self.started, w)
    }

    /// Skips across a discontinuity: drops pending arrival counts and
    /// re-anchors emission at `w`. The caller must seal its assembler and
    /// flush via [`Self::drain_finish`] first.
    fn skip_to(&mut self, w: u64) {
        self.counts.clear();
        self.windower.skip_to(w);
        self.clock = w;
    }

    /// Advances the clock for one accepted packet in window `w`.
    fn observe(&mut self, w: u64) {
        if !self.started {
            self.started = true;
            self.windower.start_at(w);
            self.clock = w;
        }
        self.clock = self.clock.max(w);
    }

    /// Emits every window that is final — arrivals have moved past it and
    /// no still-open frame (bounded below by `min_open_end`) could seal
    /// into it — appending into `out`.
    fn drain_safe_into(
        &mut self,
        min_open_end: Option<Timestamp>,
        out: &mut Vec<(u64, QoeEstimate)>,
    ) {
        let open_bound = match min_open_end {
            // Open-frame end timestamps are never negative (their packets
            // were window-mapped first); route through the same memo as
            // the arrival path — they share the packet's window almost
            // always.
            Some(ts) if ts.as_micros() >= 0 => self.memo_map(ts.as_micros()),
            _ => self.clock,
        };
        self.windower
            .drain_until_into(self.clock.min(open_bound), out);
    }

    /// Emits everything through the last arrival window and the last
    /// window holding a frame (end of stream), appending into `out`.
    fn drain_finish_into(&mut self, out: &mut Vec<(u64, QoeEstimate)>) {
        if !self.started {
            return;
        }
        let through = (self.clock + 1).max(self.windower.last_open_window().map_or(0, |w| w + 1));
        self.windower.drain_until_into(through, out);
    }

    fn report(&mut self, method: Method, window: u64, estimate: QoeEstimate) -> WindowReport {
        WindowReport {
            window,
            method,
            estimate: Some(estimate),
            features: None,
            model_fps: None,
            video_packets: self.counts.take(window),
        }
    }

    fn empty_report(&self, method: Method, window: u64) -> WindowReport {
        WindowReport {
            window,
            method,
            estimate: Some(self.windower.empty_estimate()),
            features: None,
            model_fps: None,
            video_packets: 0,
        }
    }

    /// Snapshots every pending window (`next emission ..= clock`) without
    /// consuming anything: frames still open in the assembler are not
    /// included, so the estimates are lower bounds.
    fn provisional_into(&self, method: Method, out: &mut Vec<WindowReport>) {
        if !self.started {
            return;
        }
        out.extend(
            (self.windower.next_window()..=self.clock).map(|w| WindowReport {
                window: w,
                method,
                estimate: Some(self.windower.peek(w)),
                features: None,
                model_fps: None,
                video_packets: self.counts.peek(w),
            }),
        );
    }

    fn heap_bytes(&self) -> usize {
        self.windower.heap_bytes() + self.counts.heap_bytes()
    }
}

// ---------------------------------------------------------------------------
// Heuristic engines (shared driver over two frame sources)
// ---------------------------------------------------------------------------

/// What a heuristic engine's frame assembly must provide; implemented by
/// the two classification+assembler pairings so the (subtle) push/finish
/// orchestration exists exactly once in [`HeuristicDriver`].
trait FrameSource {
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

/// The shared heuristic state machine: gap quarantine, window clock,
/// frame offering, and safe/final draining. Owns two scratch buffers
/// (sealed frames, drained windows) so the per-packet cycle recycles
/// capacity instead of allocating.
struct HeuristicDriver<S> {
    source: S,
    state: HeuristicState,
    method: Method,
    sealed: Vec<(u64, Frame)>,
    drained: Vec<(u64, QoeEstimate)>,
}

impl<S: FrameSource> HeuristicDriver<S> {
    fn new(config: EngineConfig, method: Method, source: S) -> Self {
        HeuristicDriver {
            source,
            state: HeuristicState::new(config),
            method,
            sealed: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Offers freshly sealed frames from `self.sealed` to the windower,
    /// clearing the scratch buffer.
    fn offer_sealed(&mut self) {
        for &(id, ref frame) in &self.sealed {
            self.state.windower.offer(id, frame);
        }
        self.sealed.clear();
    }

    /// Converts windows drained into `self.drained` to reports, clearing
    /// the scratch buffer.
    fn report_drained(&mut self, out: &mut Vec<WindowReport>) {
        let method = self.method;
        // (index loop: `drained` and `state` are disjoint fields, but the
        // report call needs `&mut self.state` while we read `drained`)
        for i in 0..self.drained.len() {
            let (dw, e) = self.drained[i];
            out.push(self.state.report(method, dw, e));
        }
        self.drained.clear();
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        let Some(w) = self.state.window_of(pkt.ts) else {
            return;
        };
        match self.state.gap_check(w) {
            GapVerdict::Drop => return,
            GapVerdict::Reanchor => {
                // Flush everything pending before jumping: report
                // construction must precede skip_to so window counts are
                // consumed at their own indices.
                self.source.seal_all_into(&mut self.sealed);
                self.offer_sealed();
                self.state.drain_finish_into(&mut self.drained);
                self.report_drained(out);
                self.state.skip_to(w);
            }
            GapVerdict::Normal => {}
        }
        self.state.observe(w);
        if self.source.accept_into(pkt, &mut self.sealed) {
            self.state.counts.bump(w);
        }
        self.offer_sealed();
        let min_open_end = self.source.min_open_end();
        self.state.drain_safe_into(min_open_end, &mut self.drained);
        self.report_drained(out);
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.source.seal_all_into(&mut self.sealed);
        self.offer_sealed();
        self.state.drain_finish_into(&mut self.drained);
        self.report_drained(out);
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.state.empty_report(self.method, window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        self.state.provisional_into(self.method, out);
    }

    fn heap_bytes(&self) -> usize {
        self.source.heap_bytes()
            + self.state.heap_bytes()
            + self.sealed.capacity() * std::mem::size_of::<(u64, Frame)>()
            + self.drained.capacity() * std::mem::size_of::<(u64, QoeEstimate)>()
    }
}

/// Size-threshold classification feeding Algorithm 1.
struct IpUdpSource {
    classifier: MediaClassifier,
    assembler: IpUdpAssembler,
}

impl FrameSource for IpUdpSource {
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
struct RtpSource {
    payload_map: PayloadMap,
    assembler: RtpAssembler,
}

impl FrameSource for RtpSource {
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

/// Streaming IP/UDP Heuristic: size-threshold media classification,
/// incremental Algorithm 1, per-window QoE estimation.
pub struct IpUdpHeuristicEngine {
    driver: HeuristicDriver<IpUdpSource>,
}

impl IpUdpHeuristicEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        IpUdpHeuristicEngine {
            driver: HeuristicDriver::new(
                config,
                Method::IpUdpHeuristic,
                IpUdpSource {
                    classifier: MediaClassifier::new(config.vmin),
                    assembler: IpUdpAssembler::new(config.heuristic),
                },
            ),
        }
    }
}

impl QoeEstimator for IpUdpHeuristicEngine {
    fn method(&self) -> Method {
        Method::IpUdpHeuristic
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        self.driver.push_into(pkt, out)
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.driver.finish_into(out)
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.driver.empty_report(window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        self.driver.provisional_into(out)
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.driver.heap_bytes()
    }
}

/// Streaming RTP Heuristic: payload-type media classification, incremental
/// timestamp/marker frame grouping, per-window QoE estimation.
pub struct RtpHeuristicEngine {
    driver: HeuristicDriver<RtpSource>,
}

impl RtpHeuristicEngine {
    /// Creates an engine; the payload map supplies PT→media classification.
    pub fn new(config: EngineConfig, payload_map: PayloadMap) -> Self {
        RtpHeuristicEngine {
            driver: HeuristicDriver::new(
                config,
                Method::RtpHeuristic,
                RtpSource {
                    payload_map,
                    assembler: RtpAssembler::new(),
                },
            ),
        }
    }
}

impl QoeEstimator for RtpHeuristicEngine {
    fn method(&self) -> Method {
        Method::RtpHeuristic
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        self.driver.push_into(pkt, out)
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.driver.finish_into(out)
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.driver.empty_report(window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        self.driver.provisional_into(out)
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.driver.heap_bytes()
    }
}

/// Window clock shared by the two ML engines: first-packet anchoring,
/// bounded gap emission, and the advance/finish bookkeeping.
struct MlWindowClock {
    window_us: i64,
    current: u64,
    started: bool,
    gap: GapGuard,
    /// Bounds of the `current` window (`cur_lo > cur_hi` until started):
    /// a packet inside them is in the accumulating window — no division,
    /// no gap check, nothing to emit. The steady-state common case.
    cur_lo: i64,
    cur_hi: i64,
}

impl MlWindowClock {
    fn new(config: EngineConfig) -> Self {
        MlWindowClock {
            window_us: config.window_us(),
            current: 0,
            started: false,
            gap: GapGuard::default(),
            cur_lo: 1,
            cur_hi: 0,
        }
    }

    /// Re-anchors the current-window bounds memo after `current` moved.
    fn rememo(&mut self) {
        self.cur_lo = self.current as i64 * self.window_us;
        self.cur_hi = self.cur_lo + self.window_us;
    }

    /// Accepts one packet timestamp. Returns the (bounded) range of
    /// window indices to finalize before accumulating the packet, or
    /// `None` when the packet must be dropped (negative timestamp, or a
    /// quarantined far-future jump — see [`MAX_WINDOW_GAP`]). A
    /// corroborated discontinuity finalizes only the in-progress window,
    /// then skips to the new window without per-window reports.
    fn advance(&mut self, ts: Timestamp) -> Option<std::ops::Range<u64>> {
        let us = ts.as_micros();
        if us < 0 {
            return None;
        }
        if us >= self.cur_lo && us < self.cur_hi {
            // Inside the accumulating window (started is implied: the
            // bounds are empty until the first packet): nothing emits.
            // An in-window packet is a Normal verdict, which clears any
            // quarantine streak — preserve that here.
            self.gap.suspect = None;
            return Some(self.current..self.current);
        }
        let w = us.div_euclid(self.window_us) as u64;
        if !self.started {
            self.started = true;
            self.current = w;
            self.rememo();
            return Some(w..w);
        }
        match self.gap.check(self.current, self.started, w) {
            GapVerdict::Drop => None,
            GapVerdict::Reanchor => {
                let emit = self.current..self.current + 1;
                self.current = w;
                self.rememo();
                Some(emit)
            }
            GapVerdict::Normal => {
                let emit = self.current..w.max(self.current);
                self.current = w.max(self.current);
                self.rememo();
                Some(emit)
            }
        }
    }

    /// The window to finalize at end of stream, if any packet was seen.
    fn finish(&mut self) -> Option<u64> {
        self.started.then(|| {
            let w = self.current;
            self.current += 1;
            w
        })
    }

    /// The window currently accumulating, if any packet was seen.
    fn in_progress(&self) -> Option<u64> {
        self.started.then_some(self.current)
    }
}

// ---------------------------------------------------------------------------
// IP/UDP ML
// ---------------------------------------------------------------------------

/// Streaming IP/UDP ML feature extraction (+ optional model inference):
/// the 14-feature vector per window, computed incrementally.
pub struct IpUdpMlEngine {
    classifier: MediaClassifier,
    acc: IpUdpFeatureAcc,
    /// The (constant) feature vector of an empty window, derived once
    /// from a pristine accumulator so the formulas stay single-sourced.
    empty_features: Vec<f64>,
    window_secs: f64,
    clock: MlWindowClock,
    model: Option<RandomForest>,
}

impl IpUdpMlEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        let window_secs = f64::from(config.window_secs);
        IpUdpMlEngine {
            classifier: MediaClassifier::new(config.vmin),
            acc: IpUdpFeatureAcc::new(config.stats, config.theta_iat_us),
            empty_features: IpUdpFeatureAcc::new(config.stats, config.theta_iat_us)
                .features(window_secs),
            window_secs,
            clock: MlWindowClock::new(config),
            model: None,
        }
    }

    /// Attaches a trained frame-rate model; its prediction is included in
    /// every report. A cloned forest shares its trees, so flows built from
    /// one forest hold one copy between them.
    pub fn with_model(mut self, model: RandomForest) -> Self {
        self.model = Some(model);
        self
    }

    fn emit_window(&mut self, window: u64) -> WindowReport {
        let report = self.snapshot_window(window);
        self.acc.reset();
        report
    }

    fn snapshot_window(&self, window: u64) -> WindowReport {
        let features = self.acc.features(self.window_secs);
        WindowReport {
            window,
            method: Method::IpUdpMl,
            estimate: None,
            model_fps: self.model.as_ref().map(|m| m.predict(&features)),
            video_packets: self.acc.packets() as usize,
            features: Some(features),
        }
    }
}

impl QoeEstimator for IpUdpMlEngine {
    fn method(&self) -> Method {
        Method::IpUdpMl
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        let Some(emit) = self.clock.advance(pkt.ts) else {
            return;
        };
        for w in emit {
            let r = self.emit_window(w);
            out.push(r);
        }
        if self.classifier.is_video(pkt) {
            self.acc.push(pkt.ts, pkt.size);
        }
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        if let Some(w) = self.clock.finish() {
            let r = self.emit_window(w);
            out.push(r);
        }
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        WindowReport {
            window,
            method: Method::IpUdpMl,
            estimate: None,
            features: Some(self.empty_features.clone()),
            model_fps: None,
            video_packets: 0,
        }
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        if let Some(w) = self.clock.in_progress() {
            out.push(self.snapshot_window(w));
        }
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.acc.state_bytes() - std::mem::size_of::<IpUdpFeatureAcc>())
            + self.empty_features.capacity() * std::mem::size_of::<f64>()
    }
}

// ---------------------------------------------------------------------------
// RTP ML
// ---------------------------------------------------------------------------

/// Streaming RTP ML feature extraction (+ optional model inference): the
/// 12 flow features over PT-classified video packets plus the 12 RTP
/// features, computed incrementally per window.
pub struct RtpMlEngine {
    payload_map: PayloadMap,
    flow: FlowFeatureAcc,
    rtp: RtpWindowAcc,
    lag_ref: Option<LagReference>,
    /// The (constant) feature vector of an empty window.
    empty_features: Vec<f64>,
    window_secs: f64,
    clock: MlWindowClock,
    video_packets: usize,
    model: Option<RandomForest>,
}

impl RtpMlEngine {
    /// Creates an engine; the payload map supplies PT→media classification.
    pub fn new(config: EngineConfig, payload_map: PayloadMap) -> Self {
        let window_secs = f64::from(config.window_secs);
        // An empty window's features are lag-ref independent (no frames
        // means no lags), so one pristine-accumulator evaluation covers
        // every empty report.
        let mut empty_features = FlowFeatureAcc::new().features(window_secs);
        empty_features.extend(RtpWindowAcc::new().features(None));
        RtpMlEngine {
            payload_map,
            flow: FlowFeatureAcc::new(),
            rtp: RtpWindowAcc::new(),
            lag_ref: None,
            empty_features,
            window_secs,
            clock: MlWindowClock::new(config),
            video_packets: 0,
            model: None,
        }
    }

    /// Attaches a trained frame-rate model (shared, as for
    /// [`IpUdpMlEngine::with_model`]).
    pub fn with_model(mut self, model: RandomForest) -> Self {
        self.model = Some(model);
        self
    }

    fn emit_window(&mut self, window: u64) -> WindowReport {
        let report = self.snapshot_window(window);
        self.flow.reset();
        self.rtp.reset();
        self.video_packets = 0;
        report
    }

    fn snapshot_window(&self, window: u64) -> WindowReport {
        let mut features = self.flow.features(self.window_secs);
        features.extend(self.rtp.features(self.lag_ref));
        WindowReport {
            window,
            method: Method::RtpMl,
            estimate: None,
            model_fps: self.model.as_ref().map(|m| m.predict(&features)),
            video_packets: self.video_packets,
            features: Some(features),
        }
    }
}

impl QoeEstimator for RtpMlEngine {
    fn method(&self) -> Method {
        Method::RtpMl
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        let Some(emit) = self.clock.advance(pkt.ts) else {
            return;
        };
        for w in emit {
            let r = self.emit_window(w);
            out.push(r);
        }
        if let Some(h) = pkt.rtp {
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
                Some(MediaKind::VideoRtx) => self.rtp.push_rtx(pkt.ts, &h),
                _ => {}
            }
        }
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        if let Some(w) = self.clock.finish() {
            let r = self.emit_window(w);
            out.push(r);
        }
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        WindowReport {
            window,
            method: Method::RtpMl,
            estimate: None,
            features: Some(self.empty_features.clone()),
            model_fps: None,
            video_packets: 0,
        }
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        if let Some(w) = self.clock.in_progress() {
            out.push(self.snapshot_window(w));
        }
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.flow.state_bytes() - std::mem::size_of::<FlowFeatureAcc>())
            + (self.rtp.state_bytes() - std::mem::size_of::<RtpWindowAcc>())
            + self.empty_features.capacity() * std::mem::size_of::<f64>()
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
/// [`replay_packets`], shared with source-driven replays
/// ([`crate::pipeline::build_samples`] streams a [`crate::source::ReplaySource`]
/// through several engines at once and places each engine's reports
/// through here).
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

/// A sharded, flow-keyed table of per-flow estimators: one process
/// monitoring many concurrent VCA calls.
///
/// Packets are routed by canonical UDP 5-tuple to a per-flow engine
/// created on first sight by the factory. Each shard is an
/// **open-addressed** linear-probe index over a dense entry slab: a
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
/// workers take `hash64 % n_threads` (low bits), shards take the top 16
/// bits, slot probing starts from bits 16.. — so the three layers stay
/// uncorrelated.
pub struct FlowTable<E> {
    shards: Vec<FlowShard<E>>,
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
    /// Index of this entry's slot in the shard's probe table.
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

/// One open-addressed shard: a power-of-two probe table of entry indices
/// plus a dense entry slab (`swap_remove` keeps it dense; each entry
/// remembers its slot so moves can be patched).
struct FlowShard<E> {
    slots: Vec<u32>,
    entries: Vec<FlowEntry<E>>,
}

impl<E> FlowShard<E> {
    fn new() -> Self {
        FlowShard {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        // Bits 16.. seed the probe: low bits route workers, top bits
        // route shards.
        (hash >> 16) as usize & (self.slots.len() - 1)
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
        let mut i = self.home(hash);
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
            let mut i = (e.hash >> 16) as usize & mask;
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
        let mut i = self.home(hash);
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
            let home = (self.entries[s as usize].hash >> 16) as usize & mask;
            let dist_home = j.wrapping_sub(home) & mask;
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
}

impl<E> FlowTable<E> {
    /// Creates a table with `n_shards` shards (≥ 1), a per-flow engine
    /// factory, and an idle timeout after which flows are evictable.
    pub fn new(
        n_shards: usize,
        idle_timeout: Timestamp,
        factory: impl FnMut(&FlowKey) -> E + Send + 'static,
    ) -> Self {
        assert!(n_shards >= 1, "zero shards");
        assert!(idle_timeout.as_micros() > 0, "non-positive idle timeout");
        FlowTable {
            shards: (0..n_shards).map(|_| FlowShard::new()).collect(),
            factory: Box::new(factory),
            idle_timeout_us: idle_timeout.as_micros(),
            schedule: BinaryHeap::new(),
            max_seen_us: i64::MIN,
        }
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        ((hash >> 48) as usize) % self.shards.len()
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
    /// caller already computed), replacing any existing one. The facade
    /// inserts every flow this way, because what it stores depends on more
    /// than the key (the method, or RTP-confidence probation);
    /// [`Self::push_hashed_into`] creation goes through the factory.
    pub(crate) fn insert_hashed(
        &mut self,
        hash: u64,
        key: FlowKey,
        engine: E,
        last_seen: Timestamp,
    ) {
        let shard_idx = self.shard_of(hash);
        let due_tag = self.enqueue(hash, last_seen.as_micros());
        let shard = &mut self.shards[shard_idx];
        match shard.find(hash, &key) {
            Some(idx) => {
                // The replaced engine's item no longer matches and dies
                // when popped.
                let e = &mut shard.entries[idx];
                e.engine = engine;
                e.last_seen = last_seen;
                e.due_tag = due_tag;
            }
            None => {
                shard.insert_new(key, hash, engine, last_seen, due_tag);
            }
        }
    }

    /// Mutable access to a flow's engine, if tracked, advancing the flow's
    /// `last_seen` toward `ts` (bounded by one idle timeout per call, like
    /// [`Self::push_hashed_into`]) — the facade's per-packet lookup,
    /// which needs the entry's bookkeeping hot before pushing.
    pub(crate) fn get_mut_seen_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        ts: Timestamp,
    ) -> Option<&mut E> {
        let shard_idx = self.shard_of(hash);
        let shard = &mut self.shards[shard_idx];
        let idx = shard.find(hash, key)?;
        let entry = &mut shard.entries[idx];
        self.max_seen_us = self.max_seen_us.max(entry.see(ts, self.idle_timeout_us));
        Some(&mut entry.engine)
    }

    /// Removes a flow's engine without finishing it; the caller owns any
    /// remaining flush. The flow's schedule item dies when popped.
    pub(crate) fn remove_hashed(&mut self, hash: u64, key: &FlowKey) -> Option<E> {
        let shard_idx = self.shard_of(hash);
        let shard = &mut self.shards[shard_idx];
        shard
            .find_slot(hash, key)
            .map(|slot| shard.remove_slot(slot).engine)
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
            let shard_idx = self.shard_of(hash);
            let shard = &mut self.shards[shard_idx];
            let Some(slot) = shard.probe(hash, |e| e.due_tag == due_tag(due_us)) else {
                continue;
            };
            let entry = &mut shard.entries[shard.slots[slot] as usize];
            let last_us = entry.last_seen.as_micros();
            if last_us.saturating_add(idle) < now_us || last_us > future_bound {
                return Some(shard.remove_slot(slot).into_parts());
            }
            // Seen since it was scheduled: due again, at or after `now`,
            // so this loop stops at it.
            let due_us = last_us.saturating_add(idle);
            entry.due_tag = due_tag(due_us);
            self.schedule.push(Reverse((due_us, hash)));
        }
        None
    }

    /// Rebuilds the schedule from the entry slabs in one pass, with every
    /// flow last seen beyond `future_bound` due at once. Needed only when
    /// `now` falls behind the schedule (the stream clock re-anchored
    /// backward, or a flow was opened by a far-future timestamp); it also
    /// drops every item that matched no entry.
    fn reschedule(&mut self, future_bound: i64) {
        let idle = self.idle_timeout_us;
        let mut items = std::mem::take(&mut self.schedule).into_vec();
        items.clear();
        self.max_seen_us = i64::MIN;
        for shard in &mut self.shards {
            for e in &mut shard.entries {
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
        }
        self.schedule = BinaryHeap::from(items);
    }

    /// Visits every tracked flow's engine mutably, in unspecified order
    /// (the facade's forced provisional flush walks all flows at once).
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&FlowKey, &mut E)) {
        for shard in &mut self.shards {
            for entry in shard.entries.iter_mut() {
                f(&entry.key, &mut entry.engine);
            }
        }
    }

    /// Every tracked flow's key, in unspecified order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = FlowKey> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.entries.iter().map(|e| e.key))
    }

    /// Number of currently tracked flows.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// True when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flows per shard (for load-balance inspection).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.entries.len()).collect()
    }

    /// Total resident bytes of tracked-flow state: the expiry schedule,
    /// the probe tables, the entry slabs, and what `engine_bytes` says
    /// each entry's engine holds beyond its slab slot — the numerator of
    /// the monitor's bytes-per-flow gauge.
    pub(crate) fn state_bytes(&self, engine_bytes: impl Fn(&E) -> usize) -> usize {
        let mut total = self.schedule.capacity() * std::mem::size_of::<Reverse<(i64, u64)>>();
        for shard in &self.shards {
            total += shard.slots.capacity() * std::mem::size_of::<u32>();
            total += shard.entries.capacity() * std::mem::size_of::<FlowEntry<E>>();
            for entry in &shard.entries {
                total += engine_bytes(&entry.engine);
            }
        }
        total
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
        let shard_idx = self.shard_of(hash);
        let idx = match self.shards[shard_idx].find(hash, &key) {
            Some(idx) => idx,
            None => {
                let engine = (self.factory)(&key);
                let due_tag = self.enqueue(hash, pkt.ts.as_micros());
                self.shards[shard_idx].insert_new(key, hash, engine, pkt.ts, due_tag)
            }
        };
        let entry = &mut self.shards[shard_idx].entries[idx];
        self.max_seen_us = self
            .max_seen_us
            .max(entry.see(pkt.ts, self.idle_timeout_us));
        entry.engine.push_into(pkt, out);
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
        let mut out = Vec::new();
        for shard in &mut self.shards {
            shard.slots.clear();
            for entry in shard.entries.drain(..) {
                out.push(sealed(entry.into_parts()));
            }
        }
        out.sort_by_key(|(k, _)| (k.addr_a, k.port_a, k.addr_b, k.port_b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::IpUdpHeuristic;
    use crate::qoe::estimate_windows;
    use std::net::{IpAddr, Ipv4Addr};
    use vcaml_features::{ipudp_features, windows_by_second, PktObs};

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

    #[test]
    fn heuristic_engine_matches_batch_exactly() {
        let stream = synthetic_stream(4);
        let reports = run(&mut IpUdpHeuristicEngine::new(config()), &stream);
        // Independent batch path: classify, assemble the whole trace,
        // bucket frames by end time.
        let video: Vec<(Timestamp, u16)> = stream
            .iter()
            .filter(|p| p.size >= crate::media::DEFAULT_VMIN)
            .map(|p| (p.ts, p.size))
            .collect();
        let (frames, _) = IpUdpHeuristic::new(config().heuristic).assemble(&video);
        let batch = estimate_windows(&frames, 4, 1);
        assert_eq!(reports.len(), batch.len());
        for (r, b) in reports.iter().zip(&batch) {
            assert_eq!(r.estimate.unwrap(), *b, "window {}", r.window);
        }
        for r in &reports {
            let fps = r.estimate.unwrap().fps;
            assert!((fps - 30.0).abs() <= 2.0, "fps {fps}");
        }
    }

    #[test]
    fn ml_engine_features_match_batch_slices() {
        let stream = synthetic_stream(3);
        let reports = run(&mut IpUdpMlEngine::new(config()), &stream);
        let video: Vec<PktObs> = stream
            .iter()
            .filter(|p| p.size >= crate::media::DEFAULT_VMIN)
            .map(|p| PktObs {
                ts: p.ts,
                size: p.size,
            })
            .collect();
        let windows = windows_by_second(&video, 3, 1);
        assert_eq!(reports.len(), 3);
        for (wi, r) in reports.iter().enumerate() {
            let batch = ipudp_features(&windows[wi], 1.0, config().theta_iat_us);
            assert_eq!(r.features.as_deref().unwrap(), &batch[..], "window {wi}");
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
        assert!(engine.driver.source.assembler.open_frames() <= config().heuristic.lookback + 1);
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

        let mut table = FlowTable::new(4, Timestamp::from_secs(60), |_: &FlowKey| {
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
        let mut table = FlowTable::new(2, Timestamp::from_secs(5), |_: &FlowKey| {
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
        let mut table = FlowTable::new(2, Timestamp::from_secs(5), |_: &FlowKey| {
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
        let mut table = FlowTable::new(2, Timestamp::from_secs(5), |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config())
        });
        for n in 0..100 {
            table_push(&mut table, flow_key(n), &pkt(0, 1100));
        }
        let mut rest = 0;
        for shard in &table.shards {
            rest += shard.slots.capacity() * std::mem::size_of::<u32>();
            rest +=
                shard.entries.capacity() * std::mem::size_of::<FlowEntry<IpUdpHeuristicEngine>>();
            rest += shard
                .entries
                .iter()
                .map(|e| e.engine.state_bytes())
                .sum::<usize>();
        }
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
        for shard in &mut table.shards {
            let mut idx = 0;
            while idx < shard.entries.len() {
                let e = &shard.entries[idx];
                if e.last_seen.as_micros() < deadline || e.last_seen.as_micros() > future_bound {
                    let slot = e.slot as usize;
                    out.push(sealed(shard.remove_slot(slot).into_parts()));
                } else {
                    idx += 1;
                }
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
        let shard = &table.shards[table.shard_of(hash)];
        shard
            .find(hash, key)
            .map(|idx| shard.entries[idx].last_seen.as_micros())
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
                FlowTable::new(2, Timestamp::from_micros(IDLE_US), |_: &FlowKey| {
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

    #[test]
    fn flow_table_shards_spread_load() {
        let mut table = FlowTable::new(8, Timestamp::from_secs(60), |_: &FlowKey| {
            IpUdpMlEngine::new(config())
        });
        for n in 0..64 {
            table_push(&mut table, flow_key(n), &pkt(0, 1100));
        }
        assert_eq!(table.len(), 64);
        let loads = table.shard_loads();
        assert_eq!(loads.len(), 8);
        assert!(
            loads.iter().filter(|&&l| l > 0).count() >= 4,
            "loads {loads:?}"
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
