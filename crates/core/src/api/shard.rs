//! The per-worker slice of the monitor: flow table, RTP-confidence
//! probation and re-probe, max-lag flush, idle eviction — everything
//! between a routed packet and the events it causes.

use super::event::StatsCells;
use super::{
    BoxedEngine, EstimationMethod, EvictReason, MonitorBuilder, QoeEvent, EVICT_CHECK_US,
    RTP_CONFIDENCE, RTP_PROBATION_PACKETS, RTP_REPROBE_PACKETS,
};
use crate::backpressure::EventQueue;
use crate::control::ControlShared;
use crate::engine::{EngineConfig, FlowTable, Method, QoeEstimator, WindowReport};
use crate::engine::{IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine};
use crate::trace::TracePacket;
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::{FlowKey, Timestamp};
use vcaml_rtp::PayloadMap;

/// Builds one per-flow engine for a resolved method — the single
/// construction point for the raw engines (the batch pipeline and the
/// monitor both come through here).
pub fn build_engine(
    method: Method,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<&RandomForest>,
) -> BoxedEngine {
    match method {
        Method::IpUdpHeuristic => Box::new(IpUdpHeuristicEngine::new(config)),
        Method::RtpHeuristic => Box::new(RtpHeuristicEngine::new(config, payload_map)),
        Method::IpUdpMl => {
            let engine = IpUdpMlEngine::new(config);
            Box::new(match model {
                Some(m) => engine.with_model(m.clone()),
                None => engine,
            })
        }
        Method::RtpMl => {
            let engine = RtpMlEngine::new(config, payload_map);
            Box::new(match model {
                Some(m) => engine.with_model(m.clone()),
                None => engine,
            })
        }
    }
}

/// One packet routed to a shard worker, carrying the
/// [`FlowKey::hash64`] the dispatcher already computed — workers reuse
/// it for the table probe, so a key is hashed exactly once per packet.
pub(super) type RoutedPacket = (u64, FlowKey, TracePacket);

/// A flow's engine plus the facade's per-flow bookkeeping, stored
/// together in the flow table's entry slab — the steady-state per-packet
/// path pays exactly one hash and one probe, with no side map to rehash
/// the key into.
struct TrackedEngine {
    engine: BoxedEngine,
    /// Packets pushed since the last finalized window (max-lag flush).
    since_report: u32,
    /// Post-probation RTP re-probe counters: `Some` only for auto-method
    /// flows that resolved to the IP/UDP fallback, which keep watching
    /// for late-blooming RTP (see [`RTP_REPROBE_PACKETS`]).
    reprobe: Option<Reprobe>,
}

impl TrackedEngine {
    /// Counts one packet toward the post-probation RTP re-probe; true
    /// when the interval it completes was confidently RTP, i.e. the flow
    /// should upgrade to its RTP engine.
    fn reprobe_says_rtp(&mut self, pkt: &TracePacket) -> bool {
        let Some(reprobe) = self.reprobe.as_mut() else {
            return false;
        };
        reprobe.seen += 1;
        reprobe.rtp_ok += u32::from(pkt.rtp.is_some());
        if reprobe.seen < RTP_REPROBE_PACKETS {
            return false;
        }
        if reprobe.rtp_ok as f64 / reprobe.seen as f64 >= RTP_CONFIDENCE {
            return true;
        }
        *reprobe = Reprobe::default();
        false
    }

    /// Max-lag flush accounting after `pushed` packets went into the
    /// engine: once `flush_after` packets pass without a finalized
    /// window, snapshot the pending windows into `snapshots`.
    fn note_pushed(
        &mut self,
        pushed: u32,
        finalized_any: bool,
        flush_after: Option<u32>,
        snapshots: &mut Vec<WindowReport>,
    ) {
        let Some(k) = flush_after else { return };
        self.since_report = if finalized_any {
            0
        } else {
            self.since_report + pushed
        };
        if self.since_report >= k {
            self.since_report = 0;
            self.engine.provisional_into(snapshots);
        }
    }
}

/// Forwarding impl so the flow table can seal, flush, and account a
/// tracked entry exactly like a bare engine.
impl QoeEstimator for TrackedEngine {
    fn method(&self) -> Method {
        self.engine.method()
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        self.engine.push_into(pkt, out);
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.engine.finish_into(out);
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.engine.empty_report(window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        self.engine.provisional_into(out);
    }

    fn state_bytes(&self) -> usize {
        // The entry slab already accounts for this struct's inline size.
        self.engine.state_bytes()
    }
}

/// Rolling RTP-confidence evidence over the current re-probe interval.
#[derive(Default)]
struct Reprobe {
    /// Packets seen this interval.
    seen: u32,
    /// Of those, how many parsed as RTP.
    rtp_ok: u32,
}

/// A flow still in RTP-confidence probation: packets buffered until the
/// method decision.
struct PendingFlow {
    packets: Vec<TracePacket>,
    rtp_ok: usize,
    last_seen: Timestamp,
}

impl PendingFlow {
    fn confident_rtp(&self) -> bool {
        !self.packets.is_empty() && self.rtp_ok as f64 / self.packets.len() as f64 >= RTP_CONFIDENCE
    }
}

/// Events produced since the last [`ShardState::deliver`], and the
/// counters that move with them. A field of its own so emission can run
/// while the flow table or a scratch buffer is borrowed.
struct Outbox {
    /// Per-flow order is append order. Wrapped at emission: the `Arc` is
    /// the unit of delivery everywhere downstream.
    events: Vec<Arc<QoeEvent>>,
    stats: Arc<StatsCells>,
}

impl Outbox {
    fn emit(&mut self, event: QoeEvent) {
        self.events.push(Arc::new(event));
    }

    fn opened(&mut self, flow: FlowKey, ts: Timestamp) {
        self.stats.flows_opened.fetch_add(1, Relaxed);
        self.emit(QoeEvent::FlowOpened { flow, ts });
    }

    fn window(&mut self, flow: FlowKey, report: WindowReport, provisional: bool) {
        let counter = if provisional {
            &self.stats.provisional_reports
        } else {
            &self.stats.window_reports
        };
        counter.fetch_add(1, Relaxed);
        self.emit(QoeEvent::WindowReport {
            flow,
            report,
            provisional,
        });
    }

    /// Drains the scratch buffers into events — finalized windows, then
    /// provisional snapshots — leaving both empty with their capacity.
    fn windows(
        &mut self,
        flow: FlowKey,
        reports: &mut Vec<WindowReport>,
        snapshots: &mut Vec<WindowReport>,
    ) {
        for report in reports.drain(..) {
            self.window(flow, report, false);
        }
        for report in snapshots.drain(..) {
            self.window(flow, report, true);
        }
    }

    fn sealed(&mut self, flow: FlowKey, reason: EvictReason, final_reports: Vec<WindowReport>) {
        self.stats.flows_evicted.fetch_add(1, Relaxed);
        self.stats
            .window_reports
            .fetch_add(final_reports.len() as u64, Relaxed);
        self.emit(QoeEvent::FlowEvicted {
            flow,
            reason,
            final_reports,
        });
    }
}

/// The per-worker slice of the monitor: a partition of the flow table
/// plus everything per-flow processing needs — probation buffers,
/// max-lag flush bookkeeping, the bounded-advance stream clock, and idle
/// expiry. `Send`, so it runs inline or on a worker thread
/// unchanged; because a flow is hashed to exactly one shard, per-flow
/// results are identical either way (the tested parallel-vs-sequential
/// parity invariant).
pub(super) struct ShardState {
    method: EstimationMethod,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<RandomForest>,
    idle_timeout_us: i64,
    flush_after: Option<u32>,
    /// Window length in µs, for anchoring method upgrades.
    window_us: i64,
    /// This shard's worker index (0 on an inline monitor) — the slot it
    /// publishes its flow footprint under.
    worker: usize,
    /// Per-flow engines *and* facade bookkeeping, together in the table's
    /// entry slab: one [`FlowKey::hash64`] and one probe per packet.
    table: FlowTable<TrackedEngine>,
    pending: HashMap<FlowKey, PendingFlow>,
    /// Stream clock: max ingest timestamp, bounded-advance so one corrupt
    /// far-future timestamp cannot mass-evict healthy flows. Per shard —
    /// a shard's clock advances only on its own flows' packets.
    now: Option<Timestamp>,
    /// Consecutive packets arriving more than one idle timeout behind
    /// `now` — corroboration that `now` itself came from a corrupt
    /// timestamp and must re-anchor backward.
    behind_streak: u32,
    /// Stream time of the last probation sweep ([`EVICT_CHECK_US`]).
    last_evict_us: i64,
    /// Control-plane cells this shard polls between batches.
    pub(super) control: Arc<ControlShared>,
    /// Last flush epoch applied (see
    /// [`MonitorHandle::force_flush`](crate::control::MonitorHandle::force_flush)).
    seen_flush_epoch: u64,
    /// Cursor into the shared eviction-request list.
    evict_cursor: usize,
    outbox: Outbox,
    /// Scratch for finalized windows, drained after every engine push
    /// and kept warm — the per-packet path allocates no report buffer.
    reports: Vec<WindowReport>,
    /// Scratch for provisional (max-lag flush) snapshots, same lifecycle.
    snapshots: Vec<WindowReport>,
    /// Scratch for the flows each packet's expiry check seals, same
    /// lifecycle.
    expired: Vec<(FlowKey, Vec<WindowReport>)>,
}

impl ShardState {
    /// The shard for `worker`, with `n_shards` inner table shards.
    pub(super) fn new(
        builder: &MonitorBuilder,
        n_shards: usize,
        worker: usize,
        stats: Arc<StatsCells>,
        control: Arc<ControlShared>,
    ) -> Self {
        ShardState {
            worker,
            method: builder.method,
            config: builder.config,
            payload_map: builder.payload_map,
            model: builder.model.clone(),
            idle_timeout_us: builder.idle_timeout.as_micros(),
            flush_after: builder.flush_after,
            window_us: i64::from(builder.config.window_secs) * 1_000_000,
            // The facade always inserts engines explicitly (method
            // selection can depend on probation evidence, not just the
            // key), so the table's first-sight factory must never fire.
            table: FlowTable::new(n_shards, builder.idle_timeout, |_: &FlowKey| {
                unreachable!("the facade inserts engines explicitly")
            }),
            pending: HashMap::new(),
            now: None,
            behind_streak: 0,
            last_evict_us: i64::MIN,
            control,
            seen_flush_epoch: 0,
            evict_cursor: 0,
            outbox: Outbox {
                events: Vec::new(),
                stats,
            },
            reports: Vec::new(),
            snapshots: Vec::new(),
            expired: Vec::new(),
        }
    }

    /// Routes one packet through probation, re-probe, its flow engine,
    /// and idle expiry. The caller has already rejected negative
    /// timestamps.
    pub(super) fn ingest(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.outbox.stats.packets.fetch_add(1, Relaxed);
        self.ingest_hashed(flow.hash64(), flow, pkt);
    }

    /// Batch form of [`Self::ingest`]: the packet counter is bumped once
    /// for the whole batch, and each packet reuses the route hash the
    /// dispatching thread already computed.
    pub(super) fn ingest_batch(&mut self, batch: Vec<RoutedPacket>) {
        self.outbox
            .stats
            .packets
            .fetch_add(batch.len() as u64, Relaxed);
        for (hash, flow, pkt) in batch {
            self.ingest_hashed(hash, flow, pkt);
        }
    }

    fn ingest_hashed(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        self.advance_clock(pkt.ts);
        if !self.push_established(hash, flow, &pkt) {
            self.ingest_cold(hash, flow, pkt);
        }
        self.maybe_evict();
    }

    /// The steady-state per-packet path: one table probe finds the flow's
    /// engine *and* its bookkeeping; finalized windows land in the warm
    /// scratch buffer and are emitted from there. Returns `false` when
    /// the flow is not established (new or in probation).
    fn push_established(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) -> bool {
        let Some(tracked) = self.table.get_mut_seen_hashed(hash, &flow, pkt.ts) else {
            return false;
        };
        if tracked.reprobe_says_rtp(pkt) {
            self.upgrade_flow(hash, flow, pkt);
            return true;
        }
        tracked.engine.push_into(pkt, &mut self.reports);
        tracked.note_pushed(
            1,
            !self.reports.is_empty(),
            self.flush_after,
            &mut self.snapshots,
        );
        self.outbox
            .windows(flow, &mut self.reports, &mut self.snapshots);
        true
    }

    /// Builds the engine for a flow's resolved method.
    fn tracked(&self, method: Method, reprobe: Option<Reprobe>) -> TrackedEngine {
        TrackedEngine {
            engine: build_engine(method, self.config, self.payload_map, self.model.as_ref()),
            since_report: 0,
            reprobe,
        }
    }

    /// Builds the engine for a flow's resolved method and installs it.
    fn open_engine(&mut self, hash: u64, flow: FlowKey, method: Method, first_seen: Timestamp) {
        let tracked = self.tracked(method, None);
        self.table.insert_hashed(hash, flow, tracked, first_seen);
    }

    /// Off the fast path: the flow has no engine yet — it is brand new,
    /// or still buffering toward the RTP-confidence decision.
    fn ingest_cold(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        if !self.pending.contains_key(&flow) {
            self.outbox.opened(flow, pkt.ts);
            if !self.method.is_auto() {
                self.open_engine(hash, flow, self.method.fallback(), pkt.ts);
                self.push_established(hash, flow, &pkt);
                return;
            }
        }
        let pending = self.pending.entry(flow).or_insert_with(|| PendingFlow {
            packets: Vec::with_capacity(RTP_PROBATION_PACKETS),
            rtp_ok: 0,
            last_seen: pkt.ts,
        });
        pending.rtp_ok += usize::from(pkt.rtp.is_some());
        // Bounded advance, like FlowTable's last_seen: one corrupt
        // far-future timestamp must not exempt the flow from the
        // idle sweep forever.
        let bound = pending
            .last_seen
            .as_micros()
            .saturating_add(self.idle_timeout_us);
        pending.last_seen = pending
            .last_seen
            .max(Timestamp::from_micros(pkt.ts.as_micros().min(bound)));
        pending.packets.push(pkt);
        if pending.packets.len() >= RTP_PROBATION_PACKETS {
            if let Some((tracked, last_seen)) = self.resolve(flow) {
                self.table.insert_hashed(hash, flow, tracked, last_seen);
            }
        }
    }

    /// Seals and reports every remaining flow (end of stream).
    pub(super) fn finish(&mut self) {
        let mut sealed = self.table.drain_finish_all();
        // Probation flows are sealed straight from their replayed engines:
        // nothing expires after this, so they skip the table and its
        // schedule. Sorted: the map's iteration order differs from run to
        // run, and the event stream must not.
        let mut keys: Vec<FlowKey> = self.pending.keys().copied().collect();
        keys.sort_unstable();
        for flow in keys {
            if let Some((mut tracked, _)) = self.resolve(flow) {
                let mut tail = Vec::new();
                tracked.engine.finish_into(&mut tail);
                sealed.push((flow, tail));
            }
        }
        sealed.sort_unstable_by_key(|(flow, _)| *flow);
        for (flow, final_reports) in sealed {
            self.outbox
                .sealed(flow, EvictReason::EndOfStream, final_reports);
        }
    }

    /// Moves the events produced since the last call onto `queue`, in
    /// emission order. The outbox is drained in place, so it keeps the
    /// capacity it has grown instead of regrowing after every packet that
    /// produced an event. May park the caller against a full `Block`
    /// queue (never on an inline monitor, whose queue does not block).
    pub(super) fn deliver(&mut self, queue: &EventQueue) {
        // Runs after every packet, and nearly every packet emits nothing.
        if !self.outbox.events.is_empty() {
            queue.push(self.outbox.events.drain(..), true);
        }
    }

    /// Applies pending control-plane requests
    /// ([`MonitorHandle`](crate::control::MonitorHandle)): a forced
    /// provisional flush of every flow, and requested evictions of flows
    /// this shard owns. Cheap when nothing is pending — two relaxed
    /// atomic loads. Returns whether anything was applied (the idle
    /// workers' poll-backoff reset signal).
    pub(super) fn apply_control(&mut self) -> bool {
        let mut applied = false;
        let epoch = self.control.flush_epoch();
        if epoch != self.seen_flush_epoch {
            self.seen_flush_epoch = epoch;
            self.flush_all_provisional();
            applied = true;
        }
        // Fast path first: the Arc clone below is only worth paying
        // when a request actually exists (it satisfies the borrow
        // checker across the &mut self eviction calls).
        if self.control.has_evictions_since(self.evict_cursor) {
            let control = Arc::clone(&self.control);
            for flow in control.evictions_since(&mut self.evict_cursor) {
                // A flow still in probation is resolved first (its
                // buffered packets replay through the decided engine),
                // so even a young flow's windows surface. Flows this
                // shard does not own are ignored (their owner processes
                // the same request).
                let tracked = match self.resolve(flow) {
                    Some((tracked, _)) => Some(tracked),
                    None => self.table.remove_hashed(flow.hash64(), &flow),
                };
                if let Some(tracked) = tracked {
                    self.seal(flow, tracked, EvictReason::Requested);
                }
            }
            applied = true;
        }
        applied
    }

    /// Emits provisional snapshots of every tracked flow's pending
    /// windows —
    /// [`MonitorHandle::force_flush`](crate::control::MonitorHandle::force_flush),
    /// with the same supersede-later semantics as the builder's max-lag
    /// flush.
    fn flush_all_provisional(&mut self) {
        let ShardState {
            table,
            outbox,
            snapshots,
            ..
        } = self;
        table.for_each_mut(|flow, tracked| {
            tracked.engine.provisional_into(snapshots);
            for report in snapshots.drain(..) {
                outbox.window(*flow, report, true);
            }
        });
    }

    /// Flushes a flow's remaining windows and seals the flow with them.
    fn seal(&mut self, flow: FlowKey, mut tracked: TrackedEngine, reason: EvictReason) {
        let mut final_reports = Vec::new();
        tracked.engine.finish_into(&mut final_reports);
        self.outbox.sealed(flow, reason, final_reports);
    }

    /// Advances the stream clock by at most one idle timeout per packet,
    /// so a single corrupt far-future timestamp (which the engines
    /// quarantine) cannot fast-forward time and mass-evict healthy flows.
    /// The inverse corruption — the *first* packet carrying the bogus
    /// timestamp — would otherwise pin the clock forever (sane traffic is
    /// all "in the past", and a pinned clock never expires idle flows
    /// again); when enough consecutive packets agree the clock is more
    /// than one idle timeout ahead of reality, it re-anchors backward.
    fn advance_clock(&mut self, ts: Timestamp) {
        let Some(now) = self.now else {
            self.now = Some(ts);
            return;
        };
        if now.as_micros().saturating_sub(ts.as_micros()) > self.idle_timeout_us {
            self.behind_streak += 1;
            if self.behind_streak >= crate::engine::DISCONTINUITY_CORROBORATION {
                self.behind_streak = 0;
                self.now = Some(ts);
                self.last_evict_us = self.last_evict_us.min(ts.as_micros());
            }
            return;
        }
        self.behind_streak = 0;
        self.now = Some(
            now.max(Timestamp::from_micros(
                ts.as_micros()
                    .min(now.as_micros().saturating_add(self.idle_timeout_us)),
            )),
        );
    }

    /// Takes a flow out of probation: decides its method from its RTP
    /// parse confidence, builds the engine, and replays the buffered
    /// packets through it, returning the engine and the flow's
    /// `last_seen`. A flow resolved to the fallback keeps re-probing for
    /// RTP (see [`RTP_REPROBE_PACKETS`]); one resolved to the RTP variant
    /// is settled for good. `None` for a flow that is not in probation.
    fn resolve(&mut self, flow: FlowKey) -> Option<(TrackedEngine, Timestamp)> {
        let pending = self.pending.remove(&flow)?;
        let confident = pending.confident_rtp();
        let method = if confident {
            self.method.preferred()
        } else {
            self.method.fallback()
        };
        let reprobe = (!confident && self.method.preferred() != method).then(Reprobe::default);
        let mut tracked = self.tracked(method, reprobe);
        // Replay the probation buffer through the decided engine; the
        // max-lag accounting sees the burst as one push of N packets.
        for pkt in &pending.packets {
            tracked.engine.push_into(pkt, &mut self.reports);
        }
        tracked.note_pushed(
            pending.packets.len() as u32,
            !self.reports.is_empty(),
            self.flush_after,
            &mut self.snapshots,
        );
        self.outbox
            .windows(flow, &mut self.reports, &mut self.snapshots);
        // Probation advanced `last_seen` by the table's bounded rule over
        // these same packets.
        Some((tracked, pending.last_seen))
    }

    /// Post-probation RTP upgrade, reached when [`Self::push_established`]
    /// finds a fallback-resolved auto flow confidently RTP over the
    /// re-probe interval just seen (see [`RTP_REPROBE_PACKETS`]). The old
    /// engine's pending windows flush first — final up to the upgrade
    /// boundary, `provisional` for the boundary window itself, which the
    /// new engine (anchored at this packet) will finalize — so every
    /// window still appears in [`QoeEvent::final_reports`] exactly once.
    /// The seam is visible to consumers as the report's `method` changing
    /// mid-flow; the triggering packet replays into the new engine.
    fn upgrade_flow(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) {
        let Some(mut old) = self.table.remove_hashed(hash, &flow) else {
            return;
        };
        // The new engine anchors at this packet's window; the old
        // engine's flush can reach at most that window (its packets are
        // all older), so exactly the boundary overlap is provisional.
        let anchor = (pkt.ts.as_micros().div_euclid(self.window_us)) as u64;
        old.engine.finish_into(&mut self.reports);
        for report in self.reports.drain(..) {
            let provisional = report.window >= anchor;
            self.outbox.window(flow, report, provisional);
        }
        self.open_engine(hash, flow, self.method.preferred(), pkt.ts);
        self.push_established(hash, flow, pkt);
    }

    /// Idle expiry, after every packet. An established flow is sealed by
    /// the first packet on this worker after its `last_seen +
    /// idle_timeout` (the table's deadline schedule, which costs nothing
    /// when no flow is due). Once per [`EVICT_CHECK_US`] of stream time,
    /// probation flows are swept too and the footprint gauge published.
    fn maybe_evict(&mut self) {
        let Some(now) = self.now else { return };
        // A packet more than one timeout behind the clock left the clock
        // where it was, so only flows it opened "in the past" can have
        // fallen due — against a clock that may be corrupt and about to
        // re-anchor backward (`advance_clock`). They wait for the next
        // packet that is not behind.
        if self.behind_streak == 0 {
            self.table.evict_idle_into(now, &mut self.expired);
            for (flow, final_reports) in self.expired.drain(..) {
                self.outbox.sealed(flow, EvictReason::Idle, final_reports);
            }
        }
        if now.as_micros().saturating_sub(self.last_evict_us) < EVICT_CHECK_US {
            return;
        }
        self.last_evict_us = now.as_micros();
        // Like FlowTable::evict_idle: reclaim probation flows that went
        // idle, and ones whose last_seen claims to be from far in the
        // future (a corrupt timestamp that slipped in before clamping).
        let deadline = now.as_micros() - self.idle_timeout_us;
        let future_bound = now.as_micros().saturating_add(self.idle_timeout_us);
        let mut stale: Vec<FlowKey> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.last_seen.as_micros() < deadline || p.last_seen.as_micros() > future_bound
            })
            .map(|(k, _)| *k)
            .collect();
        // Sorted, like `finish`: map order must not leak into the stream.
        stale.sort_unstable();
        for flow in stale {
            // Decide with whatever probation evidence exists, replay, and
            // seal immediately: short flows still get their windows.
            if let Some((tracked, _)) = self.resolve(flow) {
                self.seal(flow, tracked, EvictReason::Idle);
            }
        }
        // Piggyback the bytes-per-flow gauge on the sweep cadence: the
        // survivors' engine state is what the monitor is resident for.
        self.control.set_flow_footprint(
            self.worker,
            self.table.state_bytes() as u64,
            self.table.len() as u64,
        );
    }
}
