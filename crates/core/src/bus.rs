//! The event bus: shared events, typed subscriptions, zero-copy fan-out.
//!
//! Every [`QoeEvent`] a monitor produces is allocated once and shared as
//! an [`Arc<QoeEvent>`] end to end — through the bounded collector queue,
//! the runner's drain loop, and every subscriber — so attaching N
//! consumers to one monitor costs N reference-count bumps per event, not
//! N deep copies (a tested invariant: the crate's clone counter stays at
//! zero across the whole delivery path, see
//! [`qoe_event_clone_count`](crate::api::qoe_event_clone_count)).
//!
//! Subscriptions are first-class: an [`EventBus`] pairs each
//! [`EventSink`] with an [`EventFilter`] — by [`EventKind`], by
//! [`FlowKey`] set, by minimum [`Severity`] — and evaluates the filter
//! **once per event on the drain thread**, so a subscriber that only
//! wants alerts pays nothing for the window reports it never sees.
//! [`Severity`] is computed against the monitor's live
//! [`AlertThresholds`], which a
//! [`MonitorHandle`] can adjust at
//! runtime: retuning the alert bar re-classifies events for every
//! min-severity subscriber without rebuilding the pipeline.
//!
//! ```
//! use vcaml::bus::{AlertThresholds, EventBus, EventFilter, EventKind, Severity};
//! use vcaml::sink::CountingSink;
//!
//! let mut bus = EventBus::new(AlertThresholds::new());
//! bus.subscribe(EventFilter::all(), CountingSink::default());
//! bus.subscribe(
//!     EventFilter::all()
//!         .kinds([EventKind::WindowReport])
//!         .min_severity(Severity::Warning),
//!     CountingSink::default(),
//! );
//! assert_eq!(bus.subscribers(), 2);
//! ```

use crate::api::QoeEvent;
use crate::control::{MonitorHandle, Shared};
use crate::leaf::Inbox;
use crate::sink::{report_fps, EventSink};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use vcaml_netpkt::FlowKey;
use vcaml_rtp::LadderRung;

/// The kind of a [`QoeEvent`], as a filterable tag (one per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`QoeEvent::FlowOpened`].
    FlowOpened,
    /// [`QoeEvent::WindowReport`].
    WindowReport,
    /// [`QoeEvent::FlowEvicted`].
    FlowEvicted,
    /// [`QoeEvent::ParseDrops`] (the name keeps the control socket's
    /// `kinds=parse_drop` grammar and the JSON `type`).
    ParseDrop,
    /// [`QoeEvent::Dropped`].
    Dropped,
}

impl EventKind {
    /// All five kinds, in declaration order.
    pub const ALL: [EventKind; 5] = [
        EventKind::FlowOpened,
        EventKind::WindowReport,
        EventKind::FlowEvicted,
        EventKind::ParseDrop,
        EventKind::Dropped,
    ];

    fn bit(self) -> u8 {
        match self {
            EventKind::FlowOpened => 1 << 0,
            EventKind::WindowReport => 1 << 1,
            EventKind::FlowEvicted => 1 << 2,
            EventKind::ParseDrop => 1 << 3,
            EventKind::Dropped => 1 << 4,
        }
    }

    /// Stable machine-readable name — the tag
    /// [`QoeEvent::tag`](crate::api::QoeEvent::tag) returns for JSON
    /// lines, reused by the control-socket filter grammar.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FlowOpened => "flow_opened",
            EventKind::WindowReport => "window_report",
            EventKind::FlowEvicted => "flow_evicted",
            EventKind::ParseDrop => "parse_drop",
            EventKind::Dropped => "dropped",
        }
    }

    /// Parses [`EventKind::name`]; `None` for anything else.
    pub fn from_name(text: &str) -> Option<Self> {
        EventKind::ALL.into_iter().find(|k| k.name() == text)
    }
}

impl QoeEvent {
    /// This event's [`EventKind`].
    pub fn kind(&self) -> EventKind {
        match self {
            QoeEvent::FlowOpened { .. } => EventKind::FlowOpened,
            QoeEvent::WindowReport { .. } => EventKind::WindowReport,
            QoeEvent::FlowEvicted { .. } => EventKind::FlowEvicted,
            QoeEvent::ParseDrops { .. } => EventKind::ParseDrop,
            QoeEvent::Dropped { .. } => EventKind::Dropped,
        }
    }
}

/// How operationally urgent an event is, for min-severity subscriptions.
/// Ordered: `Info < Warning < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Normal operation: flow lifecycle, healthy window reports.
    Info,
    /// Something an operator may want to look at: an interval's
    /// parse-drop summary, or a finalized window whose frame rate is
    /// below the live alert threshold (see [`AlertThresholds`]).
    Warning,
    /// The monitor itself lost visibility: events were shed by the
    /// bounded queue ([`QoeEvent::Dropped`]).
    Critical,
}

impl Severity {
    /// Classifies an event against an [`AlertBar`] (usually a
    /// [`AlertThresholds::bar`] snapshot): any finalized window the
    /// event carries — a standalone report or an eviction's sealed tail
    /// — falling below *any* floor (frame rate, bitrate, or the
    /// resolution-class floor expressed through the ladder) makes it a
    /// `Warning`. Provisional window snapshots are documented lower
    /// bounds and never escalate past `Info`.
    pub fn of(event: &QoeEvent, bar: &AlertBar) -> Severity {
        match event {
            QoeEvent::Dropped { .. } => Severity::Critical,
            QoeEvent::ParseDrops { .. } => Severity::Warning,
            QoeEvent::WindowReport { .. } | QoeEvent::FlowEvicted { .. }
                if event.final_reports().iter().any(|r| bar.degrades(r)) =>
            {
                Severity::Warning
            }
            QoeEvent::FlowOpened { .. }
            | QoeEvent::WindowReport { .. }
            | QoeEvent::FlowEvicted { .. } => Severity::Info,
        }
    }

    /// Index into per-severity counter arrays (`Info` = 0, `Warning` =
    /// 1, `Critical` = 2) — the order of
    /// [`MonitorSnapshot::events_by_severity`](crate::control::MonitorSnapshot::events_by_severity).
    pub fn index(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Critical => 2,
        }
    }

    /// All three severities, in ascending order (the counter-array
    /// order of [`Severity::index`]).
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Lowercase machine-readable name (`"info"` / `"warning"` /
    /// `"critical"`), as used in JSON snapshots, metric labels, and the
    /// control-socket filter grammar.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parses [`Severity::name`]; `None` for anything else.
    pub fn from_name(text: &str) -> Option<Self> {
        Severity::ALL.into_iter().find(|s| s.name() == text)
    }
}

/// A plain-value snapshot of the live [`AlertThresholds`], loaded once
/// per event on the drain thread so classifying an event against many
/// filters reads the atomics exactly once. Unset floors are `-inf` (or
/// `None` for the resolution floor) and degrade nothing.
#[derive(Debug, Clone, Copy)]
pub struct AlertBar {
    /// Frame-rate floor; a finalized window reporting below is degraded.
    pub fps: f64,
    /// Bitrate floor in kbps, against the window's estimated bitrate.
    pub min_kbps: f64,
    /// Resolution-class floor as a frame height (e.g. `360` = "at least
    /// 360p"), for display; the judgement uses `res_min_kbps`.
    pub res_height: Option<u32>,
    /// The derived bitrate bound of the resolution floor: the lowest
    /// ladder rung delivering `res_height` or better. A window whose
    /// estimated bitrate maps below that rung is degraded.
    pub res_min_kbps: f64,
}

impl AlertBar {
    /// Whether a finalized window report falls below any floor.
    pub fn degrades(&self, report: &crate::engine::WindowReport) -> bool {
        self.breaches(report).any()
    }

    /// Which floors a finalized window report falls below, with the
    /// readings that fell: the one rule behind both [`Severity::of`] and
    /// the lines an [`AlertSink`](crate::sink::AlertSink) writes.
    pub(crate) fn breaches(&self, report: &crate::engine::WindowReport) -> Breaches {
        let fps = report_fps(report).filter(|&fps| fps < self.fps);
        let kbps = report.estimate.map(|e| e.bitrate_kbps);
        let bitrate = kbps.filter(|&kbps| kbps < self.min_kbps);
        let resolution = match (bitrate, kbps, self.res_height) {
            (None, Some(kbps), Some(height)) if kbps < self.res_min_kbps => Some((kbps, height)),
            _ => None,
        };
        Breaches {
            fps,
            bitrate,
            resolution,
        }
    }
}

/// The floors one finalized report breaches ([`AlertBar::breaches`]).
/// A bitrate below the bitrate floor is one breach, not two: the
/// resolution floor is only reported for a bitrate above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Breaches {
    /// The frame rate, when below the frame-rate floor.
    pub fps: Option<f64>,
    /// The estimated bitrate, when below the bitrate floor.
    pub bitrate: Option<f64>,
    /// The estimated bitrate and the floor's height, when the bitrate is
    /// below the resolution floor's bound (and not the bitrate floor).
    pub resolution: Option<(f64, u32)>,
}

impl Breaches {
    /// Whether any floor is breached.
    pub fn any(&self) -> bool {
        self.fps.is_some() || self.bitrate.is_some() || self.resolution.is_some()
    }
}

/// Runtime-adjustable alert thresholds, shared between the event bus,
/// any [`AlertSink`](crate::sink::AlertSink) built from them, and the
/// [`MonitorHandle`] that retunes them.
///
/// Three independent floors, each unset by default (no window is ever
/// degraded until an operator sets a bar):
///
/// * a **frame-rate floor** ([`AlertThresholds::set_fps`]);
/// * a **bitrate floor** in kbps ([`AlertThresholds::set_min_kbps`]),
///   against the window's estimated video bitrate;
/// * a **resolution-class floor** expressed as a frame height
///   ([`AlertThresholds::set_resolution_floor`]): the height is mapped
///   through a VCA's bitrate ladder to the lowest rung delivering that
///   height or better, and a window whose estimated bitrate maps below
///   that rung — i.e. whose inferred resolution class is below the
///   floor, the same est-bitrate→ladder mapping the scenario harness
///   scores with — is degraded.
///
/// Cloning shares the underlying cells (this is a handle, not a value):
/// a setter called through any clone is visible to every reader on its
/// next event.
#[derive(Debug, Clone)]
pub struct AlertThresholds {
    fps_bits: Arc<AtomicU64>,
    min_kbps_bits: Arc<AtomicU64>,
    /// Resolution floor height; 0 = unset.
    res_height: Arc<AtomicU64>,
    /// Derived kbps bound of the resolution floor (`-inf` = unset).
    res_kbps_bits: Arc<AtomicU64>,
}

impl AlertThresholds {
    /// Thresholds with no floor set (`fps()` is `-inf`).
    pub fn new() -> Self {
        AlertThresholds {
            fps_bits: Arc::new(AtomicU64::new(f64::NEG_INFINITY.to_bits())),
            min_kbps_bits: Arc::new(AtomicU64::new(f64::NEG_INFINITY.to_bits())),
            res_height: Arc::new(AtomicU64::new(0)),
            res_kbps_bits: Arc::new(AtomicU64::new(f64::NEG_INFINITY.to_bits())),
        }
    }

    /// Thresholds with an initial frame-rate bar.
    pub fn with_fps(fps: f64) -> Self {
        let t = AlertThresholds::new();
        t.set_fps(fps);
        t
    }

    /// The live frame-rate bar: a finalized window reporting below this
    /// is [`Severity::Warning`]. `-inf` when unset.
    pub fn fps(&self) -> f64 {
        f64::from_bits(self.fps_bits.load(Relaxed))
    }

    /// Retunes the frame-rate bar; takes effect on the next event.
    pub fn set_fps(&self, fps: f64) {
        self.fps_bits.store(fps.to_bits(), Relaxed);
    }

    /// The live bitrate floor in kbps. `-inf` when unset.
    pub fn min_kbps(&self) -> f64 {
        f64::from_bits(self.min_kbps_bits.load(Relaxed))
    }

    /// Retunes the bitrate floor; takes effect on the next event.
    pub fn set_min_kbps(&self, kbps: f64) {
        self.min_kbps_bits.store(kbps.to_bits(), Relaxed);
    }

    /// The live resolution-class floor as a frame height, if set.
    pub fn resolution_floor(&self) -> Option<u32> {
        let h = self.res_height.load(Relaxed);
        (h > 0).then_some(h as u32)
    }

    /// Sets the resolution-class floor: windows whose estimated bitrate
    /// maps (through `ladder`, e.g. [`VcaKind::lab_ladder`]) to a rung
    /// below `height` are degraded. A height above the ladder's top rung
    /// pins the floor to the top rung. `height` 0 clears the floor.
    ///
    /// [`VcaKind::lab_ladder`]: vcaml_rtp::VcaKind::lab_ladder
    pub fn set_resolution_floor(&self, height: u32, ladder: &[LadderRung]) {
        if height == 0 {
            self.clear_resolution_floor();
            return;
        }
        // The lowest rung delivering `height` or better; ladders are
        // ascending, so fall back to the top rung for oversized floors.
        let bound = ladder
            .iter()
            .filter(|r| r.height >= height)
            .map(|r| r.min_kbps)
            .fold(f64::INFINITY, f64::min);
        let bound = if bound.is_finite() {
            bound
        } else {
            ladder
                .iter()
                .map(|r| r.min_kbps)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        self.res_kbps_bits.store(bound.to_bits(), Relaxed);
        self.res_height.store(u64::from(height), Relaxed);
    }

    /// Clears the resolution-class floor.
    fn clear_resolution_floor(&self) {
        self.res_height.store(0, Relaxed);
        self.res_kbps_bits
            .store(f64::NEG_INFINITY.to_bits(), Relaxed);
    }

    /// One consistent-enough plain-value snapshot of every floor —
    /// loaded once per event by the bus, sinks, and the metrics
    /// exporter.
    pub fn bar(&self) -> AlertBar {
        AlertBar {
            fps: self.fps(),
            min_kbps: self.min_kbps(),
            res_height: self.resolution_floor(),
            res_min_kbps: f64::from_bits(self.res_kbps_bits.load(Relaxed)),
        }
    }
}

impl Default for AlertThresholds {
    fn default() -> Self {
        AlertThresholds::new()
    }
}

/// A typed event subscription predicate: which slice of the stream a
/// subscriber observes. All three axes compose conjunctively; the
/// default ([`EventFilter::all`]) matches everything.
///
/// Evaluated once per event on the drain thread — a filtered-out
/// subscriber's sink is never called, so narrow subscribers cost
/// nothing on the events they skip.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventFilter {
    /// Bitmask of accepted [`EventKind`]s; `None` = every kind.
    kinds: Option<u8>,
    /// Accepted flows; `None` = every flow. When set, only events
    /// attributed to one of these flows match — plus
    /// [`QoeEvent::Dropped`] markers whose per-flow breakdown touches
    /// the set (a flow-pinned subscriber must still learn its flow's
    /// events were shed). Parse drops carry no flow and never match.
    flows: Option<BTreeSet<FlowKey>>,
    /// Minimum [`Severity`]; `None` = any.
    min_severity: Option<Severity>,
}

impl EventFilter {
    /// Matches every event (the unfiltered subscription).
    pub fn all() -> Self {
        EventFilter::default()
    }

    /// Restricts to the given event kinds (replaces any previous kind
    /// restriction; an empty list matches no event).
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = EventKind>) -> Self {
        self.kinds = Some(kinds.into_iter().fold(0u8, |m, k| m | k.bit()));
        self
    }

    /// Restricts to events attributed to the given flows (replaces any
    /// previous flow restriction). A [`QoeEvent::Dropped`] marker still
    /// matches when its per-flow breakdown attributes sheds to any of
    /// these flows — the queue's exact-loss accounting must reach the
    /// subscribers watching those flows. A [`QoeEvent::ParseDrops`]
    /// summary counts records that never reached flow attribution and
    /// never matches.
    pub fn flows(mut self, flows: impl IntoIterator<Item = FlowKey>) -> Self {
        self.flows = Some(flows.into_iter().collect());
        self
    }

    /// Requires at least this [`Severity`] (as classified against the
    /// bus's live [`AlertThresholds`]).
    pub fn min_severity(mut self, severity: Severity) -> Self {
        self.min_severity = Some(severity);
        self
    }

    /// Whether an event of the given severity passes the filter. The
    /// severity is supplied (not recomputed) so a bus can classify each
    /// event once and evaluate any number of filters against it; use
    /// [`Severity::of`] for post-hoc filtering outside a bus.
    pub fn matches(&self, event: &QoeEvent, severity: Severity) -> bool {
        if let Some(mask) = self.kinds {
            if mask & event.kind().bit() == 0 {
                return false;
            }
        }
        if let Some(min) = self.min_severity {
            if severity < min {
                return false;
            }
        }
        if let Some(flows) = &self.flows {
            match event {
                // Loss markers reach a flow-pinned subscriber when any
                // of its flows shed — otherwise the subscriber would
                // see a silently gapped stream.
                QoeEvent::Dropped { per_flow, .. } => {
                    if !per_flow.iter().any(|(flow, _)| flows.contains(flow)) {
                        return false;
                    }
                }
                QoeEvent::FlowOpened { .. }
                | QoeEvent::WindowReport { .. }
                | QoeEvent::FlowEvicted { .. }
                | QoeEvent::ParseDrops { .. } => match event.flow() {
                    Some(flow) if flows.contains(&flow) => {}
                    _ => return false,
                },
            }
        }
        true
    }
}

struct Subscription {
    filter: EventFilter,
    sink: Box<dyn EventSink + Send>,
}

/// A cloneable registration port onto a live [`EventBus`]: attach new
/// subscribers **while the bus is running** — the mechanism behind the
/// control socket's `SUBSCRIBE` verb. The subscription is adopted by
/// the drain thread at its next publish, so the new sink observes a
/// suffix of the stream starting there (never a torn event). Handles
/// stay valid for the bus's whole life; registering after the run ended
/// parks the sink forever, which is harmless.
#[derive(Clone)]
pub struct BusHandle {
    /// Subscriptions registered while the bus is already running,
    /// waiting to be adopted by the drain thread at its next publish.
    shared: Arc<Inbox<Subscription>>,
}

impl BusHandle {
    /// Registers a subscriber for the slice of the stream `filter`
    /// selects, starting at the drain thread's next publish.
    pub fn subscribe(&self, filter: EventFilter, sink: impl EventSink + Send + 'static) {
        self.shared.push(Subscription {
            filter,
            sink: Box::new(sink),
        });
    }
}

impl std::fmt::Debug for BusHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusHandle")
            .field("pending", &self.shared.len())
            .finish()
    }
}

/// Publishes between closed-subscriber sweeps: a detached sink
/// (dropped `SUBSCRIBE` connection) lingers at most this many events
/// before the bus reclaims its slot.
const PRUNE_INTERVAL: u64 = 1024;

/// Fan-out of one shared event stream to typed subscribers.
///
/// The bus runs on the draining thread (a
/// [`MonitorRunner`](crate::runner::MonitorRunner)'s event loop owns
/// one): for each published [`Arc<QoeEvent>`] it computes the event's
/// [`Severity`] against the live [`AlertThresholds`] once, then offers
/// the same `Arc` to every subscription whose [`EventFilter`] matches —
/// no deep copy anywhere, regardless of subscriber count. A
/// [`BusHandle`] can attach further subscribers mid-run, and sinks that
/// report themselves closed ([`EventSink::is_closed`]) are pruned
/// periodically.
pub struct EventBus {
    subscriptions: Vec<Subscription>,
    thresholds: AlertThresholds,
    published: u64,
    /// Live-registration mailbox, created lazily by [`EventBus::handle`].
    remote: Option<Arc<Inbox<Subscription>>>,
    /// The shared state of the monitor this bus drains, when attached:
    /// its per-severity event counts and per-method finalized-window
    /// counts are accumulated here on the drain thread, because severity
    /// is classified exactly once, here.
    telemetry: Option<Arc<Shared>>,
}

impl EventBus {
    /// An empty bus classifying severity against `thresholds`.
    pub fn new(thresholds: AlertThresholds) -> Self {
        EventBus {
            subscriptions: Vec::new(),
            thresholds,
            published: 0,
            remote: None,
            telemetry: None,
        }
    }

    /// Adds a subscriber observing the slice of the stream its filter
    /// selects, in subscription order relative to the other sinks.
    pub fn subscribe(&mut self, filter: EventFilter, sink: impl EventSink + Send + 'static) {
        self.subscriptions.push(Subscription {
            filter,
            sink: Box::new(sink),
        });
    }

    /// A cloneable [`BusHandle`] for attaching subscribers while the
    /// bus is running (from another thread; the handle is `Send`).
    pub fn handle(&mut self) -> BusHandle {
        let shared = self.remote.get_or_insert_with(|| Arc::new(Inbox::new()));
        BusHandle {
            shared: Arc::clone(shared),
        }
    }

    /// Routes this bus's drain-side telemetry (per-severity event
    /// counts, per-method window counts) into the monitor behind
    /// `monitor`, whose
    /// [`stats_snapshot`](MonitorHandle::stats_snapshot) reads them.
    pub(crate) fn attach_telemetry(&mut self, monitor: &MonitorHandle) {
        self.telemetry = Some(Arc::clone(&monitor.shared));
    }

    /// Number of subscribers (excluding pending live registrations not
    /// yet adopted by the drain thread).
    pub fn subscribers(&self) -> usize {
        self.subscriptions.len()
    }

    /// Whether the bus has no subscribers.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Events published so far (each counts once, however many
    /// subscribers observed it).
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Adopts subscriptions registered through a [`BusHandle`] since
    /// the last publish, and periodically sweeps out closed sinks.
    fn adopt_and_prune(&mut self) {
        if let Some(remote) = &self.remote {
            self.subscriptions.extend(remote.take());
        }
        if self.published.is_multiple_of(PRUNE_INTERVAL) {
            self.subscriptions.retain(|s| !s.sink.is_closed());
        }
    }

    /// Offers one shared event to every matching subscriber, in
    /// subscription order.
    pub fn publish(&mut self, event: &Arc<QoeEvent>) {
        self.published += 1;
        self.adopt_and_prune();
        let severity = Severity::of(event, &self.thresholds.bar());
        if let Some(shared) = &self.telemetry {
            shared.record_published(event, severity);
        }
        for sub in &mut self.subscriptions {
            if sub.filter.matches(event, severity) {
                sub.sink.on_event(event);
            }
        }
    }

    /// Flushes every subscriber, in subscription order (end of run).
    /// Also adopts any still-pending live registrations first, so a
    /// subscriber attached just before the end of the stream at least
    /// observes its flush.
    pub fn flush(&mut self) {
        self.adopt_and_prune();
        for sub in &mut self.subscriptions {
            sub.sink.flush();
        }
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscriptions.len())
            .field("published", &self.published)
            .field("alert_fps", &self.thresholds.fps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CallbackSink;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Mutex;
    use vcaml_netpkt::Timestamp;

    fn flow(n: u8) -> FlowKey {
        FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, n)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 200)),
            5001,
            17,
        )
        .0
    }

    fn opened(n: u8) -> Arc<QoeEvent> {
        Arc::new(QoeEvent::FlowOpened {
            flow: flow(n),
            ts: Timestamp::from_micros(1),
        })
    }

    fn dropped() -> Arc<QoeEvent> {
        Arc::new(QoeEvent::Dropped {
            count: 3,
            per_flow: vec![],
        })
    }

    #[test]
    fn kind_and_flow_filters_select_their_slice() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (a, b) = (Arc::clone(&seen), Arc::clone(&seen));
        let mut bus = EventBus::new(AlertThresholds::new());
        bus.subscribe(
            EventFilter::all().kinds([EventKind::Dropped]),
            CallbackSink::new(move |e| a.lock().unwrap().push(("kinds", e.tag()))),
        );
        bus.subscribe(
            EventFilter::all().flows([flow(1)]),
            CallbackSink::new(move |e| b.lock().unwrap().push(("flows", e.tag()))),
        );
        bus.publish(&opened(1));
        bus.publish(&opened(2));
        bus.publish(&dropped());
        assert_eq!(bus.published(), 3);
        let seen = seen.lock().unwrap();
        // The kind subscriber saw only the drop marker; the flow
        // subscriber saw only flow 1's open (flow-less events never
        // match a flow filter).
        assert_eq!(*seen, vec![("flows", "flow_opened"), ("kinds", "dropped")]);
    }

    #[test]
    fn min_severity_tracks_live_thresholds() {
        let thresholds = AlertThresholds::new();
        let n = Arc::new(Mutex::new(0usize));
        let n2 = Arc::clone(&n);
        let mut bus = EventBus::new(thresholds.clone());
        bus.subscribe(
            EventFilter::all().min_severity(Severity::Critical),
            CallbackSink::new(move |_| *n2.lock().unwrap() += 1),
        );
        bus.publish(&opened(1)); // Info: filtered out
        bus.publish(&dropped()); // Critical: delivered
        assert_eq!(*n.lock().unwrap(), 1);
        assert_eq!(thresholds.fps(), f64::NEG_INFINITY);
        thresholds.set_fps(24.0);
        assert_eq!(thresholds.fps(), 24.0);
    }

    #[test]
    fn flow_filter_admits_drop_markers_touching_its_flows() {
        let filter = EventFilter::all().flows([flow(1)]);
        let touching = QoeEvent::Dropped {
            count: 4,
            per_flow: vec![(flow(1), 3)],
        };
        let elsewhere = QoeEvent::Dropped {
            count: 2,
            per_flow: vec![(flow(2), 2)],
        };
        assert!(
            filter.matches(&touching, Severity::Critical),
            "a flow-pinned subscriber must learn its flow shed events"
        );
        assert!(!filter.matches(&elsewhere, Severity::Critical));
    }

    #[test]
    fn empty_kind_list_matches_nothing() {
        let filter = EventFilter::all().kinds([]);
        assert!(!filter.matches(&opened(1), Severity::Info));
        assert!(!filter.matches(&dropped(), Severity::Critical));
        assert!(EventFilter::all().matches(&dropped(), Severity::Critical));
    }
}
