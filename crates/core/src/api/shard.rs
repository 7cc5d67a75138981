//! The per-worker slice of the monitor: flow table, RTP-confidence
//! probation and re-probe, max-lag flush, idle eviction — everything
//! between a routed packet and the events it causes.

use super::{
    BoxedEngine, EstimationMethod, EvictReason, MonitorBuilder, QoeEvent, EVICT_CHECK_US,
    RTP_CONFIDENCE, RTP_PROBATION_PACKETS, RTP_REPROBE_PACKETS,
};
use crate::control::Shared;
use crate::engine::{EngineConfig, FlowTable, Method, QoeEstimator, WindowReport};
use crate::engine::{IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine};
use crate::trace::TracePacket;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::{FlowKey, Timestamp};
use vcaml_rtp::{PayloadMap, RtpHeader, HEADER_LEN};

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

/// A flow's entry in the flow table's slab: its RTP-confidence probation
/// or its decided engine, so the steady-state per-packet path pays
/// exactly one hash and one probe, with no side map to rehash the key
/// into, and every flow expires on the table's deadline schedule.
enum TrackedEngine {
    /// An auto-method flow before its method decision. Boxed, so the
    /// variant shares the decided engine's pointer niche and the entry
    /// stays 32 B.
    Probing(Box<Probation>),
    Decided(DecidedEngine),
}

impl TrackedEngine {
    /// Bytes this flow holds beyond its slab slot, for the footprint
    /// gauge.
    fn state_bytes(&self) -> usize {
        match self {
            TrackedEngine::Probing(_) => std::mem::size_of::<Probation>(),
            TrackedEngine::Decided(decided) => decided.engine.state_bytes(),
        }
    }
}

/// A decided flow's engine plus the facade's per-flow bookkeeping.
struct DecidedEngine {
    engine: BoxedEngine,
    /// Packets pushed since the last finalized window (max-lag flush).
    since_report: u32,
    /// Post-probation RTP re-probe counters: `Some` only for auto-method
    /// flows that resolved to the IP/UDP fallback, which keep watching
    /// for late-blooming RTP (see [`RTP_REPROBE_PACKETS`]).
    reprobe: Option<Reprobe>,
}

impl DecidedEngine {
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
        if confident_rtp(reprobe.rtp_ok, reprobe.seen) {
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

/// The RTP-confidence rule, for a probation and a re-probe interval
/// alike: at least [`RTP_CONFIDENCE`] of the `seen` packets parsed as
/// RTP.
fn confident_rtp(rtp_ok: u32, seen: u32) -> bool {
    f64::from(rtp_ok) / f64::from(seen) >= RTP_CONFIDENCE
}

/// Rolling RTP-confidence evidence over the current re-probe interval.
#[derive(Default)]
struct Reprobe {
    /// Packets seen this interval.
    seen: u32,
    /// Of those, how many parsed as RTP.
    rtp_ok: u32,
}

/// An auto-method flow's packets, buffered until its method decision:
/// what the decision and the engines read, one array per field, so no
/// slot pads a field out. They live inline, so probation costs a flow
/// one allocation. `truth_media` is not kept: it is ground truth for
/// evaluation, and no engine reads it.
struct Probation {
    ts: [Timestamp; RTP_PROBATION_PACKETS],
    size: [u16; RTP_PROBATION_PACKETS],
    /// Each packet's RTP fixed header in wire form; a zero version field
    /// marks a packet that is not RTP.
    rtp: [[u8; HEADER_LEN]; RTP_PROBATION_PACKETS],
    len: u8,
    rtp_ok: u8,
}

const _: () = assert!(RTP_PROBATION_PACKETS <= u8::MAX as usize);

impl Probation {
    fn new(first: TracePacket) -> Box<Self> {
        let mut probation = Box::new(Probation {
            ts: [Timestamp::ZERO; RTP_PROBATION_PACKETS],
            size: [0; RTP_PROBATION_PACKETS],
            rtp: [[0; HEADER_LEN]; RTP_PROBATION_PACKETS],
            len: 0,
            rtp_ok: 0,
        });
        probation.buffer(first);
        probation
    }

    /// Buffers one more packet; true once the decision is due.
    fn buffer(&mut self, pkt: TracePacket) -> bool {
        let i = usize::from(self.len);
        self.ts[i] = pkt.ts;
        self.size[i] = pkt.size;
        self.rtp[i] = pkt.rtp.map_or([0; HEADER_LEN], |h| h.to_fixed_bytes());
        self.len += 1;
        self.rtp_ok += u8::from(pkt.rtp.is_some());
        usize::from(self.len) == RTP_PROBATION_PACKETS
    }

    /// The buffered packets in arrival order, `truth_media` cleared.
    fn packets(&self) -> impl Iterator<Item = TracePacket> + '_ {
        (0..usize::from(self.len)).map(|i| TracePacket {
            ts: self.ts[i],
            size: self.size[i],
            rtp: RtpHeader::from_fixed_bytes(&self.rtp[i]),
            truth_media: None,
        })
    }
}

/// What a shard builds its flows' engines from: the method selection,
/// the engines' inputs, and the max-lag flush. A field of its own so a
/// flow can be decided while its table entry is borrowed.
struct Engines {
    method: EstimationMethod,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<RandomForest>,
    flush_after: Option<u32>,
}

impl Engines {
    /// A fresh engine for `method`, with its bookkeeping.
    fn build(&self, method: Method, reprobe: Option<Reprobe>) -> DecidedEngine {
        DecidedEngine {
            engine: build_engine(method, self.config, self.payload_map, self.model.as_ref()),
            since_report: 0,
            reprobe,
        }
    }

    /// Ends a probation: decides the flow's method from its RTP parse
    /// confidence, builds the engine, and replays the buffered packets
    /// through it — finalized windows into `reports`, a max-lag snapshot
    /// into `snapshots`. A flow decided on the fallback keeps re-probing
    /// for RTP (see [`RTP_REPROBE_PACKETS`]); one decided on the RTP
    /// variant is settled for good.
    fn decide(
        &self,
        probation: &Probation,
        reports: &mut Vec<WindowReport>,
        snapshots: &mut Vec<WindowReport>,
    ) -> DecidedEngine {
        let confident = confident_rtp(probation.rtp_ok.into(), probation.len.into());
        let method = if confident {
            self.method.preferred()
        } else {
            self.method.fallback()
        };
        let reprobe = (!confident && self.method.preferred() != method).then(Reprobe::default);
        let mut decided = self.build(method, reprobe);
        // The max-lag accounting sees the replay as one push of N packets.
        for pkt in probation.packets() {
            decided.engine.push_into(&pkt, reports);
        }
        decided.note_pushed(
            u32::from(probation.len),
            !reports.is_empty(),
            self.flush_after,
            snapshots,
        );
        decided
    }
}

/// Events produced since the last [`ShardState::deliver`]; each is
/// counted into the monitor's [`Shared`] counters as it is emitted. A
/// field of its own so emission can run while the flow table or a
/// scratch buffer is borrowed.
struct Outbox {
    /// Per-flow order is append order. Wrapped at emission: the `Arc` is
    /// the unit of delivery everywhere downstream.
    events: Vec<Arc<QoeEvent>>,
}

impl Outbox {
    fn emit(&mut self, event: QoeEvent) {
        self.events.push(Arc::new(event));
    }

    fn opened(&mut self, shared: &Shared, flow: FlowKey, ts: Timestamp) {
        shared.flows_opened.fetch_add(1, Relaxed);
        self.emit(QoeEvent::FlowOpened { flow, ts });
    }

    fn window(&mut self, shared: &Shared, flow: FlowKey, report: WindowReport, provisional: bool) {
        let counter = if provisional {
            &shared.provisional_reports
        } else {
            &shared.window_reports
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
        shared: &Shared,
        flow: FlowKey,
        reports: &mut Vec<WindowReport>,
        snapshots: &mut Vec<WindowReport>,
    ) {
        for report in reports.drain(..) {
            self.window(shared, flow, report, false);
        }
        for report in snapshots.drain(..) {
            self.window(shared, flow, report, true);
        }
    }

    fn sealed(
        &mut self,
        shared: &Shared,
        flow: FlowKey,
        reason: EvictReason,
        final_reports: Vec<WindowReport>,
    ) {
        shared.flows_evicted.fetch_add(1, Relaxed);
        shared
            .window_reports
            .fetch_add(final_reports.len() as u64, Relaxed);
        self.emit(QoeEvent::FlowEvicted {
            flow,
            reason,
            final_reports,
        });
    }
}

/// The per-worker slice of the monitor: a partition of the flow table,
/// whose entries hold each flow's probation buffer or engine, plus
/// everything per-flow processing needs — max-lag flush bookkeeping, the
/// bounded-advance stream clock, and idle expiry. `Send`, so it runs
/// inline or on a worker thread unchanged; because a flow is hashed to
/// exactly one shard, per-flow results are identical either way (the
/// tested parallel-vs-sequential parity invariant).
pub(super) struct ShardState {
    engines: Engines,
    idle_timeout_us: i64,
    /// Window length in µs, for anchoring method upgrades.
    window_us: i64,
    /// This shard's worker index (0 on an inline monitor): its record in
    /// `shared`.
    worker: usize,
    /// Every flow, in probation or decided, with the facade's bookkeeping
    /// in the table's entry slab: one [`FlowKey::hash64`] and one probe
    /// per packet.
    table: FlowTable<TrackedEngine>,
    /// Stream clock: max ingest timestamp, bounded-advance so one corrupt
    /// far-future timestamp cannot mass-evict healthy flows. Per shard —
    /// a shard's clock advances only on its own flows' packets.
    now: Option<Timestamp>,
    /// Consecutive packets arriving more than one idle timeout behind
    /// `now` — corroboration that `now` itself came from a corrupt
    /// timestamp and must re-anchor backward.
    behind_streak: u32,
    /// Stream time the footprint gauge was last published
    /// ([`EVICT_CHECK_US`]).
    last_footprint_us: i64,
    /// The monitor's shared state: the queue this shard delivers into,
    /// the counters it bumps, and the control cells it polls.
    shared: Arc<Shared>,
    /// Last flush epoch applied (see
    /// [`MonitorHandle::force_flush`](crate::control::MonitorHandle::force_flush)).
    seen_flush_epoch: u64,
    outbox: Outbox,
    /// Scratch for finalized windows, drained after every engine push
    /// and every seal and kept warm — the per-packet path allocates no
    /// report buffer.
    reports: Vec<WindowReport>,
    /// Scratch for provisional (max-lag flush) snapshots, same lifecycle.
    snapshots: Vec<WindowReport>,
}

impl ShardState {
    /// The shard for `worker`.
    pub(super) fn new(builder: &MonitorBuilder, worker: usize, shared: Arc<Shared>) -> Self {
        ShardState {
            worker,
            engines: Engines {
                method: builder.method,
                config: builder.config,
                payload_map: builder.payload_map,
                model: builder.model.clone(),
                flush_after: builder.flush_after,
            },
            idle_timeout_us: builder.idle_timeout.as_micros(),
            window_us: i64::from(builder.config.window_secs) * 1_000_000,
            // The facade always inserts entries explicitly (what a flow
            // starts with depends on the method selection, not just the
            // key), so the table's first-sight factory must never fire.
            table: FlowTable::new(1, builder.idle_timeout, |_: &FlowKey| {
                unreachable!("the facade inserts engines explicitly")
            }),
            now: None,
            behind_streak: 0,
            last_footprint_us: i64::MIN,
            shared,
            seen_flush_epoch: 0,
            outbox: Outbox { events: Vec::new() },
            reports: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Routes one packet through probation, re-probe, its flow engine,
    /// and idle expiry. The caller has already rejected negative
    /// timestamps.
    pub(super) fn ingest(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.shared.packets.fetch_add(1, Relaxed);
        self.ingest_hashed(flow.hash64(), flow, pkt);
    }

    /// Batch form of [`Self::ingest`]: the packet counter is bumped once
    /// for the whole batch, each packet reuses the route hash the
    /// dispatching thread already computed, and the batch then leaves
    /// this worker's ingest depth.
    pub(super) fn ingest_batch(&mut self, batch: Vec<RoutedPacket>) {
        let n = batch.len() as u64;
        self.shared.packets.fetch_add(n, Relaxed);
        for (hash, flow, pkt) in batch {
            self.ingest_hashed(hash, flow, pkt);
        }
        self.shared.worker(self.worker).depth_sub(n);
    }

    fn ingest_hashed(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        self.advance_clock(pkt.ts);
        if !self.push_tracked(hash, flow, &pkt) {
            self.open(hash, flow, pkt);
        }
        self.maybe_evict();
    }

    /// The per-packet path: one table probe finds the flow's entry. A
    /// decided flow's engine takes the packet, a probation flow's buffer
    /// takes it and, once full, the flow is decided in place; finalized
    /// windows land in the warm scratch buffer and are emitted from
    /// there. Returns `false` when the flow is new.
    fn push_tracked(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) -> bool {
        let Some(tracked) = self.table.get_mut_seen_hashed(hash, &flow, pkt.ts) else {
            return false;
        };
        match tracked {
            TrackedEngine::Decided(decided) => {
                if decided.reprobe_says_rtp(pkt) {
                    self.upgrade_flow(hash, flow, pkt);
                    return true;
                }
                decided.engine.push_into(pkt, &mut self.reports);
                decided.note_pushed(
                    1,
                    !self.reports.is_empty(),
                    self.engines.flush_after,
                    &mut self.snapshots,
                );
            }
            TrackedEngine::Probing(probation) => {
                if probation.buffer(*pkt) {
                    *tracked = TrackedEngine::Decided(self.engines.decide(
                        probation,
                        &mut self.reports,
                        &mut self.snapshots,
                    ));
                }
            }
        }
        self.outbox
            .windows(&self.shared, flow, &mut self.reports, &mut self.snapshots);
        true
    }

    /// Off the fast path: a flow's first packet. A fixed-method flow gets
    /// its engine at once; an auto-method flow enters probation,
    /// buffering packets toward the RTP-confidence decision.
    fn open(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        self.outbox.opened(&self.shared, flow, pkt.ts);
        if self.engines.method.is_auto() {
            let probing = TrackedEngine::Probing(Probation::new(pkt));
            self.table.insert_hashed(hash, flow, probing, pkt.ts);
        } else {
            self.open_engine(hash, flow, self.engines.method.fallback(), pkt.ts);
            self.push_tracked(hash, flow, &pkt);
        }
    }

    /// Builds the engine for a flow's decided method and installs it.
    fn open_engine(&mut self, hash: u64, flow: FlowKey, method: Method, first_seen: Timestamp) {
        let decided = TrackedEngine::Decided(self.engines.build(method, None));
        self.table.insert_hashed(hash, flow, decided, first_seen);
    }

    /// Seals and reports every remaining flow (end of stream), in key
    /// order: the table's layout must not leak into the event stream.
    pub(super) fn finish(&mut self) {
        // Sized up front: every flow is still resident, and growing the
        // list by doubling would raise the heap peak by more than it holds.
        let mut flows = Vec::with_capacity(self.table.len());
        flows.extend(self.table.keys());
        flows.sort_unstable();
        for flow in flows {
            if let Some(tracked) = self.table.remove_hashed(flow.hash64(), &flow) {
                self.seal(flow, tracked, EvictReason::EndOfStream);
            }
        }
    }

    /// Moves the events produced since the last call onto the monitor's
    /// queue, in emission order. The outbox is drained in place, so it
    /// keeps the capacity it has grown instead of regrowing after every
    /// packet that produced an event. Parks the caller against a full
    /// `Block` queue only while a runner drains it (an armed queue); a
    /// monitor driven through its own front doors, inline or threaded,
    /// grows past the bound instead.
    pub(super) fn deliver(&mut self) {
        // Runs after every packet, and nearly every packet emits nothing.
        if !self.outbox.events.is_empty() {
            self.shared.queue.push(self.outbox.events.drain(..));
        }
    }

    /// Applies pending control-plane requests
    /// ([`MonitorHandle`](crate::control::MonitorHandle)): a forced
    /// provisional flush of every flow, and the evictions in this
    /// shard's inbox (requests are routed to the flow's owner, so an
    /// unknown flow is the only one it skips). Cheap when nothing is
    /// pending — two relaxed atomic loads. Returns whether anything was
    /// applied (the idle workers' poll-backoff reset signal).
    pub(super) fn apply_control(&mut self) -> bool {
        let mut applied = false;
        let epoch = self.shared.flush_epoch();
        if epoch != self.seen_flush_epoch {
            self.seen_flush_epoch = epoch;
            self.flush_all_provisional();
            applied = true;
        }
        let requests = self.shared.worker(self.worker).take_evictions();
        for &flow in &requests {
            if let Some(tracked) = self.table.remove_hashed(flow.hash64(), &flow) {
                self.seal(flow, tracked, EvictReason::Requested);
            }
        }
        applied || !requests.is_empty()
    }

    /// Emits provisional snapshots of every decided flow's pending
    /// windows —
    /// [`MonitorHandle::force_flush`](crate::control::MonitorHandle::force_flush),
    /// with the same supersede-later semantics as the builder's max-lag
    /// flush.
    fn flush_all_provisional(&mut self) {
        let ShardState {
            table,
            shared,
            outbox,
            snapshots,
            ..
        } = self;
        table.for_each_mut(|flow, tracked| {
            if let TrackedEngine::Decided(decided) = tracked {
                decided.engine.provisional_into(snapshots);
                for report in snapshots.drain(..) {
                    outbox.window(shared, *flow, report, true);
                }
            }
        });
    }

    /// Seals a flow taken out of the table — the one seal path, for every
    /// [`EvictReason`]. A flow still in probation is decided first (its
    /// buffered packets replay through the decided engine), so even a
    /// young flow's windows surface, as events ahead of its
    /// [`QoeEvent::FlowEvicted`].
    fn seal(&mut self, flow: FlowKey, tracked: TrackedEngine, reason: EvictReason) {
        let mut decided = match tracked {
            TrackedEngine::Decided(decided) => decided,
            TrackedEngine::Probing(probation) => {
                let decided =
                    self.engines
                        .decide(&probation, &mut self.reports, &mut self.snapshots);
                self.outbox
                    .windows(&self.shared, flow, &mut self.reports, &mut self.snapshots);
                decided
            }
        };
        // Finish into the warm scratch and move the tail out: it is then
        // exactly as long as it holds, and an empty tail allocates nothing.
        decided.engine.finish_into(&mut self.reports);
        let final_reports = self.reports.drain(..).collect();
        self.outbox
            .sealed(&self.shared, flow, reason, final_reports);
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
                self.last_footprint_us = self.last_footprint_us.min(ts.as_micros());
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

    /// Post-probation RTP upgrade, reached when [`Self::push_tracked`]
    /// finds a fallback-decided auto flow confidently RTP over the
    /// re-probe interval just seen (see [`RTP_REPROBE_PACKETS`]). The old
    /// engine's pending windows flush first — final up to the upgrade
    /// boundary, `provisional` for the boundary window itself, which the
    /// new engine (anchored at this packet) will finalize — so every
    /// window still appears in [`QoeEvent::final_reports`] exactly once.
    /// The seam is visible to consumers as the report's `method` changing
    /// mid-flow; the triggering packet replays into the new engine.
    fn upgrade_flow(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) {
        let Some(TrackedEngine::Decided(mut old)) = self.table.remove_hashed(hash, &flow) else {
            return;
        };
        // The new engine anchors at this packet's window; the old
        // engine's flush can reach at most that window (its packets are
        // all older), so exactly the boundary overlap is provisional.
        let anchor = (pkt.ts.as_micros().div_euclid(self.window_us)) as u64;
        old.engine.finish_into(&mut self.reports);
        for report in self.reports.drain(..) {
            let provisional = report.window >= anchor;
            self.outbox.window(&self.shared, flow, report, provisional);
        }
        self.open_engine(hash, flow, self.engines.method.preferred(), pkt.ts);
        self.push_tracked(hash, flow, pkt);
    }

    /// Idle expiry, after every packet: a flow — in probation or decided
    /// — is sealed by the first packet on this worker after its
    /// `last_seen + idle_timeout` (the table's deadline schedule, which
    /// costs nothing when no flow is due). Once per [`EVICT_CHECK_US`] of
    /// stream time, the footprint gauge is published too.
    fn maybe_evict(&mut self) {
        let Some(now) = self.now else { return };
        // A packet more than one timeout behind the clock left the clock
        // where it was, so only flows it opened "in the past" can have
        // fallen due — against a clock that may be corrupt and about to
        // re-anchor backward (`advance_clock`). They wait for the next
        // packet that is not behind.
        if self.behind_streak == 0 {
            while let Some((flow, tracked)) = self.table.pop_idle(now) {
                self.seal(flow, tracked, EvictReason::Idle);
            }
        }
        if now.as_micros().saturating_sub(self.last_footprint_us) < EVICT_CHECK_US {
            return;
        }
        self.last_footprint_us = now.as_micros();
        self.shared.worker(self.worker).set_flow_footprint(
            self.table.state_bytes(TrackedEngine::state_bytes) as u64,
            self.table.len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{Probation, TrackedEngine, RTP_PROBATION_PACKETS};
    use crate::trace::TracePacket;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::{MediaKind, RtpHeader};

    /// The compact buffer gives back each packet's timestamp, size and
    /// RTP header exactly, in order, and only `truth_media` is lost.
    #[test]
    fn probation_replays_packets_exactly() {
        let header = |i: u32| match i % 4 {
            0 => None,
            1 => Some(RtpHeader::basic(
                96,
                i as u16,
                90_000 * i,
                0xdead_beef,
                false,
            )),
            2 => Some(RtpHeader {
                marker: true,
                payload_type: 127,
                sequence: u16::MAX,
                timestamp: u32::MAX,
                ssrc: u32::MAX,
                csrc_count: 15,
                has_extension: true,
                has_padding: true,
            }),
            _ => Some(RtpHeader {
                csrc_count: 1,
                has_extension: true,
                ..RtpHeader::basic(0, 0, 0, 0, true)
            }),
        };
        let sent: Vec<TracePacket> = (0..RTP_PROBATION_PACKETS as u32)
            .map(|i| TracePacket {
                ts: Timestamp::from_micros(i64::from(i) * 1_000 - 5_000),
                size: [0, 1, 1_200, u16::MAX][i as usize % 4],
                rtp: header(i),
                truth_media: Some(MediaKind::Video),
            })
            .collect();
        let mut probation = Probation::new(sent[0]);
        let due: Vec<bool> = sent[1..].iter().map(|&p| probation.buffer(p)).collect();
        assert_eq!(due.iter().filter(|&&d| d).count(), 1);
        assert_eq!(due.last(), Some(&true), "the 16th packet decides");
        let cleared: Vec<TracePacket> = sent
            .iter()
            .map(|&p| TracePacket {
                truth_media: None,
                ..p
            })
            .collect();
        assert_eq!(probation.packets().collect::<Vec<_>>(), cleared);
        assert_eq!(probation.rtp_ok, 12);
    }

    /// Timestamp, size and the 12-byte RTP header per packet (22 B) and
    /// two counters; whole 32 B `TracePacket`s would take 528 B per flow.
    #[test]
    fn probation_stays_compact() {
        assert!(std::mem::size_of::<Probation>() <= 360);
    }

    /// A probation buffer held beside the engine instead of boxed would
    /// widen every flow's slab entry (48 B), probation or not.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn tracked_engine_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<TrackedEngine>(), 32);
    }
}
