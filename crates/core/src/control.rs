//! The live control plane: observe and steer a running monitor.
//!
//! A [`MonitorHandle`] is a cheap, cloneable, thread-safe view onto a
//! [`Monitor`](crate::api::Monitor) — obtained from
//! [`Monitor::handle`](crate::api::Monitor::handle), from
//! [`MonitorRunner::handle`](crate::runner::MonitorRunner::handle), or
//! from a spawned
//! [`RunningMonitor`](crate::runner::RunningMonitor) — that stays valid
//! for the monitor's whole life (and keeps its counters readable after
//! `finish`). It exposes:
//!
//! * [`MonitorHandle::stats_snapshot`] — a consistent-enough live
//!   [`MonitorSnapshot`]: the running [`MonitorStats`] counters, flows
//!   live, undrained events, and the per-shard ingest-channel depths of
//!   a threaded monitor;
//! * [`MonitorHandle::force_flush`] — ask every shard for provisional
//!   snapshots of its pending windows (freshness on demand, same
//!   semantics as the builder's max-lag flush);
//! * [`MonitorHandle::evict_flow`] — seal one flow now, surfacing its
//!   tail windows as a [`QoeEvent::FlowEvicted`](crate::api::QoeEvent)
//!   with [`EvictReason::Requested`](crate::api::EvictReason);
//! * [`MonitorHandle::set_alert_fps`] — retune the live
//!   [`AlertThresholds`] every severity-filtered subscriber and shared
//!   [`AlertSink`](crate::sink::AlertSink) reads;
//! * [`MonitorHandle::stop`] — gracefully stop a run: ingest ports stop
//!   pulling from their sources, in-flight packets are flushed, and the
//!   monitor seals every flow — no event produced before the stop is
//!   lost (a tested invariant).
//!
//! Control requests are applied by whichever thread owns the flow state:
//! shard workers poll them between batches (and on a short idle tick),
//! an inline monitor applies them on its next `ingest`/`drain` call.
//! Handles never touch engines directly, so there is nothing to lock
//! and a dropped or forgotten handle costs nothing.

use crate::api::{MonitorStats, QoeEvent, StatsCells};
use crate::backpressure::{EventQueue, QueueAccounting};
use crate::bus::{AlertThresholds, Severity};
use crate::engine::Method;
use crate::json;
use crate::leaf::LeafMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use vcaml_netpkt::FlowKey;
use vcaml_rtp::VcaKind;

/// Shared control cells between a monitor's owner-side state (shard
/// workers or the inline shard) and every [`MonitorHandle`].
#[derive(Debug)]
pub(crate) struct ControlShared {
    /// Graceful-stop flag; ingest ports check it between packets.
    stop: AtomicBool,
    /// Bumped by `force_flush`; shards emit provisional snapshots when
    /// they observe a new epoch.
    flush_epoch: AtomicU64,
    /// Eviction requests, one mailbox per worker (one on an inline
    /// monitor): a request goes to the flow's owner, which empties its
    /// mailbox when it applies them.
    mailboxes: Vec<Mailbox>,
    /// Live alert thresholds (severity classification + shared sinks).
    pub(crate) thresholds: AlertThresholds,
    /// The monitor's VCA, whose lab ladder the resolution floor maps
    /// heights through.
    vca: VcaKind,
    /// Per-worker ingest backlog, in packets handed to the worker's
    /// channel and not yet processed. Empty on an inline monitor.
    depths: Vec<AtomicU64>,
    /// Per-worker tracked-flow footprint in bytes (engine state,
    /// probation buffers and table overhead), refreshed once per
    /// stream-second of each shard's traffic. One slot
    /// even on an inline monitor (its shard publishes as worker 0).
    flow_bytes: Vec<AtomicU64>,
    /// Flows counted into the matching `flow_bytes` slot.
    flow_counts: Vec<AtomicU64>,
    /// Heap bytes of the monitor's one attached forest (0 without one),
    /// fixed at build.
    model_bytes: u64,
    /// Events published by the bus, by [`Severity`] slot
    /// ([`Severity::index`]). Written only by the drain thread (where
    /// severity is classified, exactly once per event); read by
    /// snapshots and the metrics exporter.
    severity_counts: [AtomicU64; 3],
    /// Finalized window reports by [`Method`] slot ([`Method::index`]),
    /// same writer discipline as `severity_counts`.
    windows_by_method: [AtomicU64; 4],
}

/// One worker's pending eviction requests.
#[derive(Debug)]
struct Mailbox {
    requests: LeafMutex<Vec<FlowKey>>,
    /// `requests.len()`, readable without the lock: the owner skips the
    /// lock entirely while its mailbox is empty.
    len: AtomicUsize,
}

impl ControlShared {
    pub(crate) fn new(workers: usize, model_bytes: u64, vca: VcaKind) -> Self {
        ControlShared {
            stop: AtomicBool::new(false),
            flush_epoch: AtomicU64::new(0),
            mailboxes: (0..workers.max(1))
                .map(|_| Mailbox {
                    requests: LeafMutex::new(Vec::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            thresholds: AlertThresholds::new(),
            vca,
            depths: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            flow_bytes: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            flow_counts: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            model_bytes,
            severity_counts: Default::default(),
            windows_by_method: Default::default(),
        }
    }

    /// Folds one published event into the drain-side telemetry: its
    /// severity count, and one window count per finalized report.
    /// Called by the bus on the drain thread only.
    pub(crate) fn record_published(&self, event: &QoeEvent, severity: Severity) {
        self.severity_counts[severity.index()].fetch_add(1, Relaxed);
        for report in event.final_reports() {
            self.windows_by_method[report.method.index()].fetch_add(1, Relaxed);
        }
    }

    /// Published-event counts by [`Severity`] slot.
    pub(crate) fn severity_counts(&self) -> [u64; 3] {
        self.severity_counts.each_ref().map(|c| c.load(Relaxed))
    }

    /// Finalized-window counts by [`Method`] slot.
    pub(crate) fn windows_by_method(&self) -> [u64; 4] {
        self.windows_by_method.each_ref().map(|c| c.load(Relaxed))
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.stop.load(Relaxed)
    }

    /// Current flush epoch (shards compare against their last seen).
    pub(crate) fn flush_epoch(&self) -> u64 {
        self.flush_epoch.load(Relaxed)
    }

    /// The worker that owns the flow whose [`FlowKey::hash64`] is
    /// `hash`: its low bits, modulo the worker count (0 on an inline
    /// monitor). Packets and eviction requests are routed by it alike.
    /// Inside a worker the flow table's slot probing starts from bits
    /// 16.., so the two routing layers stay uncorrelated while the key is
    /// hashed exactly once (see `FlowTable`).
    pub(crate) fn owner(&self, hash: u64) -> usize {
        (hash % self.mailboxes.len() as u64) as usize
    }

    /// Empties `worker`'s eviction mailbox. Lock-free (one relaxed load,
    /// no allocation) while it is empty — the per-packet case.
    pub(crate) fn take_evictions(&self, worker: usize) -> Vec<FlowKey> {
        let Some(mailbox) = self.mailboxes.get(worker) else {
            return Vec::new();
        };
        if mailbox.len.load(Relaxed) == 0 {
            return Vec::new();
        }
        let mut requests = mailbox.requests.lock();
        mailbox.len.store(0, Relaxed);
        std::mem::take(&mut *requests)
    }

    /// Eviction requests posted and not yet taken, over every mailbox.
    #[cfg(test)]
    pub(crate) fn held_evictions(&self) -> usize {
        self.mailboxes.iter().map(|m| m.requests.lock().len()).sum()
    }

    /// Records `n` packets handed to `worker`'s channel.
    pub(crate) fn depth_add(&self, worker: usize, n: u64) {
        if let Some(cell) = self.depths.get(worker) {
            cell.fetch_add(n, Relaxed);
        }
    }

    /// Records `n` packets processed by `worker`.
    pub(crate) fn depth_sub(&self, worker: usize, n: u64) {
        if let Some(cell) = self.depths.get(worker) {
            cell.fetch_sub(n, Relaxed);
        }
    }

    /// Publishes `worker`'s tracked-flow footprint, probation flows
    /// included (once per stream-second of that shard's traffic).
    pub(crate) fn set_flow_footprint(&self, worker: usize, bytes: u64, flows: u64) {
        if let Some(cell) = self.flow_bytes.get(worker) {
            cell.store(bytes, Relaxed);
        }
        if let Some(cell) = self.flow_counts.get(worker) {
            cell.store(flows, Relaxed);
        }
    }

    /// Summed footprint across workers: `(bytes, flows)`.
    pub(crate) fn flow_footprint(&self) -> (u64, u64) {
        let bytes = self.flow_bytes.iter().map(|c| c.load(Relaxed)).sum();
        let flows = self.flow_counts.iter().map(|c| c.load(Relaxed)).sum();
        (bytes, flows)
    }
}

/// A live, consistent-enough snapshot of a monitor's state, taken by
/// [`MonitorHandle::stats_snapshot`]. On a threaded monitor the counters
/// are eventually consistent (packets still queued on a shard channel
/// are not yet counted); after `finish` everything is settled.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// The running ingest/emit counters.
    pub stats: MonitorStats,
    /// Flows currently tracked (opened minus evicted).
    pub flows_live: u64,
    /// Events queued for the consumer and not yet drained.
    pub pending_events: usize,
    /// Per-shard-worker ingest backlog, in packets handed to the worker
    /// and not yet processed. Empty on an inline monitor.
    pub shard_depths: Vec<u64>,
    /// Estimated resident bytes per tracked flow, averaged over the flows
    /// tracked at each shard's last footprint update, once per
    /// stream-second (0 until a shard has published): each engine's
    /// struct, its accumulators' retained heap capacity (one window's
    /// content at its high-water mark), each probation flow's packet
    /// buffer, and flow-table overhead.
    /// The attached model is shared by every flow and counted once, in
    /// `model_bytes`.
    pub bytes_per_flow: u64,
    /// Heap bytes of the attached forest, which every shard and flow of
    /// the monitor shares: set once at build, 0 without a model.
    pub model_bytes: u64,
    /// The live alert frame-rate bar, if one is set.
    pub alert_fps: Option<f64>,
    /// The live alert bitrate floor (kbps), if one is set.
    pub alert_min_kbps: Option<f64>,
    /// The live resolution-class floor (frame height), if one is set.
    pub alert_resolution_floor: Option<u32>,
    /// Events published on the bus so far, by severity
    /// ([`Severity::ALL`] order: info, warning, critical). All zero
    /// until a drain loop with an attached bus has run.
    pub events_by_severity: [u64; 3],
    /// Finalized window reports published on the bus, by method
    /// ([`Method::ALL`] order). Same caveat as `events_by_severity`.
    pub windows_by_method: [u64; 4],
    /// Whether a graceful stop has been requested.
    pub stop_requested: bool,
}

impl MonitorSnapshot {
    /// One compact JSON object (`"type":"stats"`), the JSON-lines form
    /// the CLI's `--stats-every` emits to stderr.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Appends the [`MonitorSnapshot::to_json_line`] object to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let mut o = json::Object::begin(out);
        json::str(o.key("type"), "stats");
        self.stats.write_json(o.key("stats"));
        json::uint(o.key("flows_live"), self.flows_live);
        json::uint(o.key("pending_events"), self.pending_events as u64);
        json::array(o.key("shard_depths"), &self.shard_depths, |out, depth| {
            json::uint(out, *depth)
        });
        json::uint(o.key("bytes_per_flow"), self.bytes_per_flow);
        json::uint(o.key("model_bytes"), self.model_bytes);
        if let Some(fps) = self.alert_fps {
            json::float(o.key("alert_fps"), fps);
        }
        if let Some(kbps) = self.alert_min_kbps {
            json::float(o.key("alert_min_kbps"), kbps);
        }
        if let Some(height) = self.alert_resolution_floor {
            json::uint(o.key("alert_resolution_floor"), u64::from(height));
        }
        let mut by_severity = json::Object::begin(o.key("events_by_severity"));
        for s in Severity::ALL {
            json::uint(
                by_severity.key(s.name()),
                self.events_by_severity[s.index()],
            );
        }
        by_severity.end();
        let mut by_method = json::Object::begin(o.key("windows_by_method"));
        for method in Method::ALL {
            json::uint(
                by_method.key(method.slug()),
                self.windows_by_method[method.index()],
            );
        }
        by_method.end();
        json::bool(o.key("stop_requested"), self.stop_requested);
        o.end();
    }
}

/// A cloneable live handle onto a monitor: snapshot its counters, force
/// a flush, evict a flow, retune alert thresholds, request a graceful
/// stop. See the [module docs](self) for semantics and timing.
#[derive(Clone)]
pub struct MonitorHandle {
    pub(crate) control: Arc<ControlShared>,
    pub(crate) stats: Arc<StatsCells>,
    pub(crate) queue: Arc<EventQueue>,
}

impl MonitorHandle {
    /// Takes a live [`MonitorSnapshot`]. Never blocks the data path:
    /// counter loads plus one short queue lock, under which
    /// `events_dropped`, its per-flow breakdown and `pending_events` are
    /// all read — the three agree with each other in every snapshot.
    pub fn stats_snapshot(&self) -> MonitorSnapshot {
        let QueueAccounting {
            dropped_total,
            dropped_by_flow,
            pending,
        } = self.queue.accounting();
        let stats = self.stats.snapshot(dropped_total, dropped_by_flow);
        let flows_live = stats.flows_opened.saturating_sub(stats.flows_evicted);
        let (footprint_bytes, footprint_flows) = self.control.flow_footprint();
        MonitorSnapshot {
            flows_live,
            bytes_per_flow: footprint_bytes
                .checked_div(footprint_flows)
                .unwrap_or_default(),
            model_bytes: self.control.model_bytes,
            pending_events: pending,
            shard_depths: self
                .control
                .depths
                .iter()
                .map(|d| d.load(Relaxed))
                .collect(),
            alert_fps: self.alert_fps(),
            alert_min_kbps: self.alert_min_kbps(),
            alert_resolution_floor: self.control.thresholds.resolution_floor(),
            events_by_severity: self.control.severity_counts(),
            windows_by_method: self.control.windows_by_method(),
            stop_requested: self.control.stop_requested(),
            stats,
        }
    }

    /// Asks every shard to emit provisional snapshots of its flows'
    /// pending windows (marked `provisional: true`, superseded by later
    /// final reports — the same contract as the builder's
    /// `flush_after_packets`). Applied by shard workers within their
    /// next poll tick; an inline monitor applies it on its next
    /// `ingest`/`drain` call.
    pub fn force_flush(&self) {
        self.control.flush_epoch.fetch_add(1, Relaxed);
    }

    /// Asks the owning shard to seal `flow` now: its engine is finished
    /// and the tail windows surface as a `FlowEvicted` event with
    /// [`EvictReason::Requested`](crate::api::EvictReason::Requested).
    /// Unknown flows are ignored. Same application timing as
    /// [`MonitorHandle::force_flush`].
    pub fn evict_flow(&self, flow: FlowKey) {
        let mailbox = &self.control.mailboxes[self.control.owner(flow.hash64())];
        let mut requests = mailbox.requests.lock();
        requests.push(flow);
        mailbox.len.store(requests.len(), Relaxed);
    }

    /// The live [`AlertThresholds`] (a shared handle: retuning through
    /// it is visible to the bus and every shared alert sink).
    pub fn alert_thresholds(&self) -> AlertThresholds {
        self.control.thresholds.clone()
    }

    /// Retunes the alert frame-rate bar, effective from the next event.
    pub fn set_alert_fps(&self, fps: f64) {
        self.control.thresholds.set_fps(fps);
    }

    /// The live alert frame-rate bar, if one is set.
    pub fn alert_fps(&self) -> Option<f64> {
        let fps = self.control.thresholds.fps();
        (fps > f64::NEG_INFINITY).then_some(fps)
    }

    /// Retunes the alert bitrate floor (kbps), effective from the next
    /// event: finalized windows estimating below it classify as
    /// [`Severity::Warning`] and trip shared alert sinks.
    pub fn set_alert_min_kbps(&self, kbps: f64) {
        self.control.thresholds.set_min_kbps(kbps);
    }

    /// The live alert bitrate floor (kbps), if one is set.
    pub fn alert_min_kbps(&self) -> Option<f64> {
        let kbps = self.control.thresholds.min_kbps();
        (kbps > f64::NEG_INFINITY).then_some(kbps)
    }

    /// Sets the resolution-class floor: `height` is mapped through the
    /// lab bitrate ladder of the monitor's own VCA
    /// ([`VcaKind::lab_ladder`]) to a kbps bound once, here, so
    /// per-event classification stays lock-free. Height 0 clears the
    /// floor. See
    /// [`AlertThresholds::set_resolution_floor`](crate::bus::AlertThresholds::set_resolution_floor).
    pub fn set_alert_resolution_floor(&self, height: u32) {
        let ladder = self.control.vca.lab_ladder();
        self.control.thresholds.set_resolution_floor(height, ladder);
    }

    /// The live resolution-class floor (frame height), if one is set.
    pub fn alert_resolution_floor(&self) -> Option<u32> {
        self.control.thresholds.resolution_floor()
    }

    /// Requests a graceful stop: every ingest port stops pulling from
    /// its source at the next packet boundary, in-flight packets are
    /// flushed to the shards, and the run seals every flow — events
    /// already produced are all delivered. Idempotent; never blocks.
    pub fn stop(&self) {
        self.control.stop.store(true, Relaxed);
    }

    /// Whether a graceful stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.control.stop_requested()
    }

    /// The shared control cells — in-crate only, for wiring a bus's
    /// drain-side telemetry back into this monitor's snapshots.
    pub(crate) fn control_cells(&self) -> Arc<ControlShared> {
        Arc::clone(&self.control)
    }

    /// A minimal stop-flag view for sources that sleep (see
    /// [`Paced::with_stop`](crate::source::Paced::with_stop)).
    pub fn stop_token(&self) -> StopToken {
        StopToken {
            control: Arc::clone(&self.control),
        }
    }
}

impl std::fmt::Debug for MonitorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHandle")
            .field("snapshot", &self.stats_snapshot())
            .finish_non_exhaustive()
    }
}

/// A cloneable view of just the graceful-stop flag, for packet sources
/// that wait (real-time pacing, future live taps) and must notice a
/// [`MonitorHandle::stop`] without polling the full handle.
#[derive(Clone)]
pub struct StopToken {
    control: Arc<ControlShared>,
}

impl StopToken {
    /// Whether a graceful stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.control.stop_requested()
    }
}

impl std::fmt::Debug for StopToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StopToken")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}
