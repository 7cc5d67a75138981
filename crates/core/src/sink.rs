//! Typed event sinks: where a monitor's [`QoeEvent`]s go.
//!
//! An [`EventSink`] observes the event stream in order —
//! [`EventSink::on_event`] per event, one [`EventSink::flush`] at end of
//! run — and is the output half of the pluggable I/O layer (the input
//! half is [`crate::source`]). A [`crate::runner::MonitorRunner`] fans
//! every drained event out to all of its configured sinks, in order.
//!
//! Provided sinks:
//!
//! * [`JsonLinesSink`] — one compact JSON object per event, the log
//!   shipper / dashboard feed format;
//! * [`CallbackSink`] — a closure per event, for ad-hoc consumers;
//! * [`ChannelSink`] — a bounded channel subscriber: the receiver can
//!   live on another thread, and the bound is the backpressure;
//! * [`AlertSink`] — frame-rate threshold alerts as JSON lines (lifted
//!   out of the `monitor` CLI);
//! * [`SummarySink`] — end-of-run per-flow rollup table (windows, mean
//!   frame rate / bitrate, method, shed events).
//!
//! ```
//! use std::io::Cursor;
//! use vcaml::api::{EstimationMethod, MonitorBuilder};
//! use vcaml::runner::MonitorRunner;
//! use vcaml::sink::ChannelSink;
//! use vcaml::source::PcapFileSource;
//! use vcaml::Method;
//! use vcaml_rtp::VcaKind;
//! use vcaml_vcasim::synthetic_capture;
//!
//! // A bounded channel subscriber receives every event the run produced.
//! let capture = synthetic_capture(VcaKind::Teams, 2, 1, 3);
//! let (subscriber, rx) = ChannelSink::bounded(65_536);
//! let report = MonitorRunner::new(
//!     MonitorBuilder::new(VcaKind::Teams)
//!         .method(EstimationMethod::Fixed(Method::IpUdpHeuristic)),
//! )
//! .source(PcapFileSource::new(Cursor::new(capture)).expect("a pcap header"))
//! .sink(subscriber)
//! .run();
//! let lines: Vec<String> = rx.try_iter().map(|e| e.to_json_line()).collect();
//! assert!(report.events > 0);
//! assert_eq!(lines.len() as u64, report.events, "one JSON line per event");
//! ```

use crate::api::QoeEvent;
use crate::bus::AlertThresholds;
use crate::engine::{Method, WindowReport};
use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use vcaml_netpkt::FlowKey;

/// An ordered observer of a monitor's event stream.
///
/// Sinks run on the draining thread (the runner's event loop), so they
/// need no synchronization of their own; a slow sink slows the drain,
/// which is exactly the backpressure contract of the bounded queue.
pub trait EventSink {
    /// Observes one shared event. Events arrive in drain order, which
    /// preserves per-flow order; the `Arc` is the delivery currency of
    /// the whole output path, so a sink that forwards the event
    /// elsewhere ([`ChannelSink`], a custom broadcaster) clones the
    /// `Arc` — never the event.
    fn on_event(&mut self, event: &Arc<QoeEvent>);

    /// End of run: write totals, flush buffers, release resources.
    /// Called exactly once by the runner after the final event.
    fn flush(&mut self) {}

    /// Whether this sink will never observe anything again (its
    /// consumer went away). A bus may drop closed sinks; most sinks are
    /// never closed, so the default is `false`. [`ChannelSink`] reports
    /// a dropped receiver here — how the daemon's `SUBSCRIBE` streams
    /// get reclaimed after the connection dies.
    fn is_closed(&self) -> bool {
        false
    }
}

impl EventSink for Box<dyn EventSink> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        (**self).on_event(event);
    }

    fn flush(&mut self) {
        (**self).flush();
    }

    fn is_closed(&self) -> bool {
        (**self).is_closed()
    }
}

impl EventSink for Box<dyn EventSink + Send> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        (**self).on_event(event);
    }

    fn flush(&mut self) {
        (**self).flush();
    }

    fn is_closed(&self) -> bool {
        (**self).is_closed()
    }
}

/// One compact JSON object per event, newline-delimited — the format
/// dashboards and log shippers consume ([`QoeEvent::to_json_line`]).
pub struct JsonLinesSink<W: Write> {
    writer: W,
    /// The line being written, kept so steady-state events allocate
    /// nothing.
    line: String,
}

impl<W: Write> JsonLinesSink<W> {
    /// Writes JSON lines to `writer`.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            line: String::new(),
        }
    }

    /// Returns the inner writer (tests that assert on the bytes).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for JsonLinesSink<W> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        #[expect(
            clippy::expect_used,
            reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
        )]
        self.writer
            .write_all(self.line.as_bytes())
            .expect("event sink write");
    }

    fn flush(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
        )]
        self.writer.flush().expect("event sink flush");
    }
}

/// A closure per event — the ad-hoc consumer shape.
pub struct CallbackSink<F: FnMut(&QoeEvent)> {
    callback: F,
}

impl<F: FnMut(&QoeEvent)> CallbackSink<F> {
    /// Calls `callback` for every event.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback }
    }
}

impl<F: FnMut(&QoeEvent)> EventSink for CallbackSink<F> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        (self.callback)(event);
    }
}

/// Counts events without looking at them — benches and smoke tests.
#[derive(Debug, Default)]
pub struct CountingSink {
    events: u64,
}

impl CountingSink {
    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl EventSink for CountingSink {
    fn on_event(&mut self, _event: &Arc<QoeEvent>) {
        self.events += 1;
    }
}

/// A bounded channel subscriber: shared events go onto a
/// [`sync_channel`] whose receiver can live on another thread. Each
/// delivery clones the `Arc`, never the event — N channel subscribers
/// on one stream share one allocation per event (the ROADMAP PR 4
/// fan-out cost, deleted).
///
/// The sink never blocks the drain loop: a full channel *sheds* the
/// event and counts it ([`ChannelSink::overflowed`]). Blocking would be
/// a deadlock trap for the common drain-after-run pattern — the runner's
/// event loop is the monitor queue's only consumer, so parking it
/// against a subscriber that is only read after `run()` returns would
/// hang the whole pipeline. Size the channel for the run (events are
/// small) or drain the receiver concurrently for lossless delivery. A
/// dropped receiver quietly detaches the sink (no panic mid-run).
pub struct ChannelSink {
    tx: SyncSender<Arc<QoeEvent>>,
    detached: bool,
    overflowed: Arc<AtomicU64>,
}

impl ChannelSink {
    /// A sink/receiver pair with an event bound of `capacity`.
    pub fn bounded(capacity: usize) -> (Self, Receiver<Arc<QoeEvent>>) {
        assert!(capacity >= 1, "zero channel capacity");
        let (tx, rx) = sync_channel(capacity);
        (
            ChannelSink {
                tx,
                detached: false,
                overflowed: Arc::new(AtomicU64::new(0)),
            },
            rx,
        )
    }

    /// Whether the receiver has gone away (events are discarded).
    pub fn is_detached(&self) -> bool {
        self.detached
    }

    /// Events shed because the channel was full when they arrived.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Relaxed)
    }

    /// A shared view of the overflow counter, readable from the
    /// receiving side after the sink itself moved onto the drain thread
    /// (the daemon reports per-subscriber shed counts through this).
    pub fn overflow_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.overflowed)
    }
}

impl EventSink for ChannelSink {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        if self.detached {
            return;
        }
        match self.tx.try_send(Arc::clone(event)) {
            Ok(()) => {}
            Err(std::sync::mpsc::TrySendError::Full(_)) => {
                self.overflowed.fetch_add(1, Relaxed);
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => self.detached = true,
        }
    }

    fn is_closed(&self) -> bool {
        self.detached
    }
}

/// Frame rate of a report, as alerting sees it: heuristic estimate or
/// attached-model prediction. `None` for feature-only reports (ML
/// methods without a model carry no rate signal).
pub fn report_fps(report: &WindowReport) -> Option<f64> {
    report.estimate.map(|e| e.fps).or(report.model_fps)
}

/// Threshold alerting on inferred QoE — the operator loop of the
/// paper's §1, as a composable sink instead of CLI-private code. Emits
/// one JSON line per finalized window that degrades past the live
/// [`AlertThresholds`] bars: frame rate below the fps floor, bitrate
/// below the kbps floor, or bitrate below the resolution-class floor
/// (`metric` names which bar tripped). Provisional (max-lag flush)
/// snapshots are documented lower bounds and never alerted on.
pub struct AlertSink<W: Write> {
    writer: W,
    thresholds: AlertThresholds,
    alerts: u64,
    /// The line being written: each alert reaches `writer` whole, in
    /// one `write_all`.
    line: String,
}

impl<W: Write> AlertSink<W> {
    /// Alerts to `writer` when a window's frame rate drops below
    /// `fps_threshold` (a private, fixed bar).
    pub fn new(writer: W, fps_threshold: f64) -> Self {
        AlertSink::with_thresholds(writer, AlertThresholds::with_fps(fps_threshold))
    }

    /// Alerts against shared, live [`AlertThresholds`] — pass a
    /// [`MonitorHandle::alert_thresholds`](crate::control::MonitorHandle::alert_thresholds)
    /// and the bar is retunable mid-run through the handle.
    pub fn with_thresholds(writer: W, thresholds: AlertThresholds) -> Self {
        AlertSink {
            writer,
            thresholds,
            alerts: 0,
            line: String::new(),
        }
    }

    /// Alerts emitted so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Writes one alert line: the members every alert has, what
    /// `reading` adds between them (the value that tripped the bar),
    /// and the bar itself — `null` should it not be a finite number.
    fn alert(
        &mut self,
        metric: &'static str,
        flow: &FlowKey,
        window: u64,
        threshold: f64,
        reading: impl FnOnce(&mut json::Object),
    ) {
        self.alerts += 1;
        self.line.clear();
        let mut o = json::Object::begin(&mut self.line);
        json::str(o.key("type"), "alert");
        json::str(o.key("metric"), metric);
        json::flow(o.key("flow"), flow);
        json::uint(o.key("window"), window);
        reading(&mut o);
        json::float(o.key("threshold"), threshold);
        o.end();
        self.line.push('\n');
        #[expect(
            clippy::expect_used,
            reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
        )]
        self.writer
            .write_all(self.line.as_bytes())
            .expect("alert sink write");
    }
}

impl<W: Write> EventSink for AlertSink<W> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        let Some(flow) = event.flow() else { return };
        let bar = self.thresholds.bar();
        for report in event.final_reports() {
            let window = report.window;
            if let Some(fps) = report_fps(report) {
                if fps < bar.fps {
                    self.alert("fps", &flow, window, bar.fps, |o| {
                        json::fixed(o.key("fps"), fps, 1);
                    });
                }
            }
            if let Some(est) = &report.estimate {
                let kbps = est.bitrate_kbps;
                if kbps < bar.min_kbps {
                    self.alert("bitrate", &flow, window, bar.min_kbps, |o| {
                        json::fixed(o.key("kbps"), kbps, 0);
                    });
                } else if let Some(height) = bar.res_height {
                    if kbps < bar.res_min_kbps {
                        self.alert("resolution", &flow, window, bar.res_min_kbps, |o| {
                            json::fixed(o.key("kbps"), kbps, 0);
                            json::uint(o.key("floor_height"), u64::from(height));
                        });
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
        )]
        self.writer.flush().expect("alert sink flush");
    }
}

/// One flow's rollup inside a [`Summary`].
#[derive(Debug, Clone, Default)]
pub struct FlowSummary {
    /// Finalized windows observed.
    pub windows: u64,
    /// Sum of frame-rate signals over windows that carried one.
    fps_sum: f64,
    /// Windows that carried a frame-rate signal.
    fps_n: u64,
    /// Sum of heuristic bitrate estimates over windows that carried one.
    kbps_sum: f64,
    /// Windows that carried a bitrate estimate.
    kbps_n: u64,
    /// Method of the most recent report (changes mid-flow on re-probe).
    pub method: Option<Method>,
    /// Events shed for this flow by a `DropOldest` queue.
    pub shed: u64,
    /// Whether the flow was sealed (idle eviction or end of stream).
    pub sealed: bool,
}

impl FlowSummary {
    /// Mean frame rate over windows that carried a signal.
    pub fn mean_fps(&self) -> Option<f64> {
        (self.fps_n > 0).then(|| self.fps_sum / self.fps_n as f64)
    }

    /// Mean bitrate (kbps) over windows that carried an estimate.
    pub fn mean_kbps(&self) -> Option<f64> {
        (self.kbps_n > 0).then(|| self.kbps_sum / self.kbps_n as f64)
    }
}

/// The aggregation state behind [`SummarySink`], usable directly when a
/// program wants the rollups instead of the rendered table.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    flows: BTreeMap<FlowKey, FlowSummary>,
    /// Packets dropped at parse time.
    pub parse_drops: u64,
    /// Events shed by the bounded queue (all flows + unattributed).
    pub events_shed: u64,
}

impl Summary {
    /// Folds one event into the rollups.
    pub fn observe(&mut self, event: &QoeEvent) {
        match event {
            QoeEvent::ParseDrop { .. } => self.parse_drops += 1,
            QoeEvent::Dropped { count, per_flow } => {
                self.events_shed += count;
                for (flow, n) in per_flow {
                    self.flows.entry(*flow).or_default().shed += n;
                }
            }
            QoeEvent::FlowOpened { flow, .. } => {
                self.flows.entry(*flow).or_default();
            }
            QoeEvent::WindowReport { flow, .. } | QoeEvent::FlowEvicted { flow, .. } => {
                let entry = self.flows.entry(*flow).or_default();
                if matches!(event, QoeEvent::FlowEvicted { .. }) {
                    entry.sealed = true;
                }
                for report in event.final_reports() {
                    entry.windows += 1;
                    entry.method = Some(report.method);
                    if let Some(fps) = report_fps(report) {
                        entry.fps_sum += fps;
                        entry.fps_n += 1;
                    }
                    if let Some(est) = &report.estimate {
                        entry.kbps_sum += est.bitrate_kbps;
                        entry.kbps_n += 1;
                    }
                }
            }
        }
    }

    /// Per-flow rollups, in canonical flow order.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowSummary)> {
        self.flows.iter()
    }

    /// Renders the rollup table.
    pub fn write_table(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{:<44} {:<17} {:>7} {:>9} {:>10} {:>6}",
            "flow", "method", "windows", "mean_fps", "mean_kbps", "shed"
        )?;
        for (flow, s) in &self.flows {
            let fps = s
                .mean_fps()
                .map_or_else(|| "-".into(), |v| format!("{v:.1}"));
            let kbps = s
                .mean_kbps()
                .map_or_else(|| "-".into(), |v| format!("{v:.0}"));
            writeln!(
                out,
                "{:<44} {:<17} {:>7} {:>9} {:>10} {:>6}",
                flow.to_string(),
                s.method.map_or("-", |m| m.name()),
                s.windows,
                fps,
                kbps,
                s.shed
            )?;
        }
        let windows: u64 = self.flows.values().map(|s| s.windows).sum();
        writeln!(
            out,
            "total: {} flows, {} windows, {} parse drops, {} events shed",
            self.flows.len(),
            windows,
            self.parse_drops,
            self.events_shed
        )
    }
}

/// End-of-run per-flow rollup table: windows, mean frame rate / bitrate,
/// method, and shed-event counts per flow (the per-flow drop breakdown
/// of [`QoeEvent::Dropped`], surfaced for operators). The table renders
/// on [`EventSink::flush`], i.e. once, after the last event.
pub struct SummarySink<W: Write> {
    summary: Summary,
    writer: W,
    written: bool,
}

impl<W: Write> SummarySink<W> {
    /// Renders the end-of-run table to `writer`.
    pub fn new(writer: W) -> Self {
        SummarySink {
            summary: Summary::default(),
            writer,
            written: false,
        }
    }

    /// The rollups accumulated so far.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

impl<W: Write> EventSink for SummarySink<W> {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        self.summary.observe(event);
    }

    fn flush(&mut self) {
        if !self.written {
            self.written = true;
            #[expect(
                clippy::expect_used,
                reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
            )]
            self.summary
                .write_table(&mut self.writer)
                .expect("summary sink write");
        }
        #[expect(
            clippy::expect_used,
            reason = "EventSink is infallible by contract; a dead sink must abort, not drop telemetry"
        )]
        self.writer.flush().expect("summary sink flush");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    fn flow() -> FlowKey {
        use std::net::{IpAddr, Ipv4Addr};
        FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        )
        .0
    }

    fn opened(us: i64) -> Arc<QoeEvent> {
        Arc::new(QoeEvent::FlowOpened {
            flow: flow(),
            ts: Timestamp::from_micros(us),
        })
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.on_event(&opened(1));
        sink.on_event(&opened(2));
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"flow_opened\"")));
    }

    /// Every `write` call it receives, as its own chunk.
    #[derive(Default)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn alert_sink_hands_each_line_over_in_one_write() {
        let report = |window, bitrate_kbps, fps| WindowReport {
            window,
            method: Method::IpUdpHeuristic,
            estimate: Some(crate::qoe::QoeEstimate {
                bitrate_kbps,
                fps,
                frame_jitter_ms: 0.0,
            }),
            features: None,
            model_fps: None,
            video_packets: 1,
        };
        let thresholds = AlertThresholds::with_fps(24.0);
        thresholds.set_min_kbps(300.0);
        let mut chunks = Chunks::default();
        let mut sink = AlertSink::with_thresholds(&mut chunks, thresholds);
        // Two windows, three bars tripped between them.
        sink.on_event(&Arc::new(QoeEvent::FlowEvicted {
            flow: flow(),
            reason: crate::api::EvictReason::Idle,
            final_reports: vec![report(0, 100.0, 12.0), report(1, 900.0, 20.0)],
        }));
        assert_eq!(sink.alerts(), 3);
        assert_eq!(chunks.0.len(), 3, "one write per alert");
        for line in &chunks.0 {
            assert!(line.starts_with(b"{\"type\":\"alert\",") && line.ends_with(b"}\n"));
        }
    }

    #[test]
    fn channel_sink_delivers_and_detaches() {
        let (mut sink, rx) = ChannelSink::bounded(4);
        sink.on_event(&opened(1));
        assert_eq!(rx.recv().expect("delivered").tag(), "flow_opened");
        drop(rx);
        sink.on_event(&opened(2));
        assert!(sink.is_detached(), "dropped receiver detaches the sink");
        sink.on_event(&opened(3)); // no panic once detached
    }

    #[test]
    fn channel_sink_sheds_instead_of_blocking_when_full() {
        let (mut sink, rx) = ChannelSink::bounded(2);
        for i in 0..5 {
            sink.on_event(&opened(i)); // must never park the drain thread
        }
        assert_eq!(sink.overflowed(), 3, "exact shed count");
        assert_eq!(rx.try_iter().count(), 2, "the bound held");
    }

    #[test]
    fn summary_counts_sheds_and_drops() {
        let mut summary = Summary::default();
        summary.observe(&opened(1));
        summary.observe(&QoeEvent::Dropped {
            count: 5,
            per_flow: vec![(flow(), 4)],
        });
        summary.observe(&QoeEvent::ParseDrop {
            ts: Timestamp::from_micros(2),
            reason: crate::api::ParseDropReason::NotUdp,
        });
        assert_eq!(summary.events_shed, 5);
        assert_eq!(summary.parse_drops, 1);
        let (_, s) = summary.flows().next().expect("flow tracked");
        assert_eq!(s.shed, 4);
        let mut table = Vec::new();
        summary.write_table(&mut table).expect("render");
        let text = String::from_utf8(table).expect("utf8");
        assert!(text.contains("total: 1 flows"));
        assert!(text.contains("5 events shed"));
    }
}
