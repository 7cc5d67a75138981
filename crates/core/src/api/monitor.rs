//! The [`Monitor`] itself: dispatch (inline, or an [`IngestPort`] onto
//! shard worker threads), the drain side, and the ports the runner forks
//! from it.

use super::decode::{self, Decoded};
use super::event::StatsCells;
use super::shard::{RoutedPacket, ShardState};
#[cfg(doc)]
use super::OverflowPolicy;
use super::{EstimationMethod, MonitorBuilder, MonitorStats, QoeEvent, INGEST_BATCH};
use crate::backpressure::EventQueue;
use crate::control::{ControlShared, MonitorHandle};
use crate::engine::Method;
use crate::leaf::leaf_held;
use crate::source::SourcePacket;
use crate::trace::TracePacket;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{FlowKey, LinkType, Timestamp};
use vcaml_rtp::VcaKind;

/// Takes an event out of its delivery `Arc`. On the `Monitor`-owned
/// drain paths the monitor holds the only reference, so this is a move,
/// not a copy; the clone fallback only runs when a caller has stashed
/// another handle to the same event (their copy, their cost).
fn unshare(event: Arc<QoeEvent>) -> QoeEvent {
    Arc::try_unwrap(event).unwrap_or_else(|shared| (*shared).clone())
}

/// One producer's pending parse-drop summary. A rejected record is a
/// per-reason counter bump and a fold in here, nothing else: no event,
/// no allocation, no queue lock. The summary becomes one
/// [`QoeEvent::ParseDrops`] when a record the producer handles reaches
/// the end of the pending summary's interval (intervals are aligned on
/// `window_us` of capture time), and at the producer's end of stream —
/// never on a drain, a flush or wall time, so the summaries a stream
/// yields depend on its records alone and an inline and a threaded run
/// of the same capture publish the same ones.
struct DropSummary {
    window_us: i64,
    /// End of the pending summary's interval; `i64::MAX` when nothing is
    /// pending. The accept path's whole cost is one compare against it.
    close_at_us: i64,
    first_us: i64,
    last_us: i64,
    by_reason: [u64; 5],
}

impl DropSummary {
    fn new(window_us: i64) -> Self {
        DropSummary {
            window_us,
            close_at_us: i64::MAX,
            first_us: 0,
            last_us: 0,
            by_reason: [0; 5],
        }
    }

    /// Where every front door's outcome passes before it is handled:
    /// closes the pending summary if the record's timestamp has reached
    /// its end, then hands an accepted packet back, or counts and folds
    /// in a rejected one.
    fn admit(
        &mut self,
        decoded: Decoded,
        shared: &MonitorHandle,
    ) -> Option<(FlowKey, TracePacket)> {
        let ts = match &decoded {
            Ok((_, pkt)) => pkt.ts,
            Err((ts, _)) => *ts,
        };
        if ts.as_micros() >= self.close_at_us {
            self.close(&shared.queue);
        }
        match decoded {
            Ok(routed) => Some(routed),
            Err((ts, reason)) => {
                shared.stats.parse_drops[reason.index()].fetch_add(1, Relaxed);
                self.fold(ts.as_micros(), reason.index());
                None
            }
        }
    }

    fn fold(&mut self, us: i64, reason: usize) {
        if self.by_reason == [0; 5] {
            // The interval's end; past the last representable one the
            // summary waits for end of stream (or a record at i64::MAX).
            self.close_at_us = us
                .div_euclid(self.window_us)
                .checked_add(1)
                .and_then(|i| i.checked_mul(self.window_us))
                .unwrap_or(i64::MAX);
            (self.first_us, self.last_us) = (us, us);
        } else {
            // A record from an earlier interval (a clock step back) folds
            // into the pending summary rather than opening its own.
            self.first_us = self.first_us.min(us);
            self.last_us = self.last_us.max(us);
        }
        self.by_reason[reason] += 1;
    }

    /// Publishes the pending summary, if any: one delivery `Arc` and one
    /// queue lock per summary.
    fn close(&mut self, queue: &EventQueue) {
        self.close_at_us = i64::MAX;
        if self.by_reason == [0; 5] {
            return;
        }
        let event = Arc::new(QoeEvent::ParseDrops {
            first_ts: Timestamp::from_micros(self.first_us),
            last_ts: Timestamp::from_micros(self.last_us),
            by_reason: std::mem::take(&mut self.by_reason),
        });
        queue.push(std::iter::once(event));
    }
}

/// One message on a shard worker's bounded ingest channel.
enum ShardMsg {
    /// Packets for this worker's flows, in arrival order.
    Batch(Vec<RoutedPacket>),
    /// End of stream: seal every flow and exit.
    Finish,
}

/// One producer's lanes onto a threaded monitor's shard workers: a
/// bounded channel and a batch buffer per worker. A packet is routed to
/// its flow's owner ([`ControlShared::owner`]) and a lane's batch is
/// sent when it reaches [`INGEST_BATCH`] packets or on an explicit flush
/// — batching amortizes the channel hand-off, the dominant dispatch
/// cost. Every [`IngestPort`], the monitor's own included, owns a set.
/// Sends block while a channel is full, which is safe because a worker
/// waits on the event queue only while a runner drains it.
struct Lanes {
    senders: Vec<SyncSender<ShardMsg>>,
    batches: Vec<Vec<RoutedPacket>>,
    control: Arc<ControlShared>,
}

impl Lanes {
    fn new(senders: Vec<SyncSender<ShardMsg>>, control: Arc<ControlShared>) -> Self {
        Lanes {
            batches: senders.iter().map(|_| Vec::new()).collect(),
            senders,
            control,
        }
    }

    /// Another producer's lanes onto the same workers.
    fn fork(&self) -> Lanes {
        Lanes::new(self.senders.clone(), Arc::clone(&self.control))
    }

    /// Routes one packet onto its worker's lane; a lane that fills is
    /// sent at once.
    fn push(&mut self, flow: FlowKey, pkt: TracePacket) {
        // The one `FlowKey::hash64` computed per packet on the
        // dispatching thread rides the channel with the packet, so the
        // worker's table probe reuses it.
        let hash = flow.hash64();
        let worker = self.control.owner(hash);
        self.batches[worker].push((hash, flow, pkt));
        if self.batches[worker].len() >= INGEST_BATCH {
            delivered(self.send_lane(worker));
            // A lane that filled once fills again: size its next batch
            // up front instead of growing into it.
            self.batches[worker].reserve(INGEST_BATCH);
        }
    }

    /// Sends every partially filled batch to its shard worker — every
    /// lane, even past one whose worker is gone; errs if any was.
    fn flush(&mut self) -> Result<(), SendError<ShardMsg>> {
        let mut sent = Ok(());
        for worker in 0..self.senders.len() {
            sent = sent.and(self.send_lane(worker));
        }
        sent
    }

    fn send_lane(&mut self, worker: usize) -> Result<(), SendError<ShardMsg>> {
        if self.batches[worker].is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.batches[worker]);
        self.control.depth_add(worker, batch.len() as u64);
        debug_assert!(!leaf_held(), "blocking shard send under a leaf guard");
        self.senders[worker].send(ShardMsg::Batch(batch))
    }

    /// End of stream: flushes every lane and tells each worker to seal
    /// its flows and exit. Blocking sends are safe here: the caller has
    /// released the queue, which never parks a worker again, so every
    /// channel drains.
    fn finish(&mut self) {
        delivered(self.flush());
        for tx in &self.senders {
            delivered(tx.send(ShardMsg::Finish));
        }
    }
}

/// A send that must land. A shard worker that is gone has panicked, and
/// the ingest thread sending to it panics at once rather than feed a dead
/// pipeline (the runner re-raises it on join).
fn delivered(sent: Result<(), SendError<ShardMsg>>) {
    #[expect(
        clippy::expect_used,
        reason = "shard workers outlive every port; a dead one already panicked"
    )]
    sent.expect("shard workers outlive ingest ports");
}

/// How packets reach the per-flow engines: on the caller's thread, or
/// hashed across dedicated shard workers.
enum Dispatch {
    /// `threads == 1`: one shard state driven inline — no threads, no
    /// channels, identical to the pre-parallel monitor — and the parse
    /// drops of the monitor's front doors.
    Inline {
        shard: Box<ShardState>,
        drops: DropSummary,
    },
    /// `threads ≥ 2`: the monitor's own port onto the workers, which its
    /// front doors feed and [`Monitor::ingest_port`] forks.
    Threaded {
        port: IngestPort,
        handles: Vec<JoinHandle<()>>,
    },
    /// Placeholder after [`Monitor::finish`] has taken the dispatch
    /// state (so the monitor's `Drop` has nothing left to reap).
    Done,
}

/// How often a freshly idle shard worker wakes to poll the control
/// plane — `force_flush` and `evict_flow` apply within one tick on a
/// quiet shard (a busy shard applies them after every batch). Also the
/// backstop of the runner's parked drain ([`Monitor::wait_for_events`]),
/// which pushes and kicks wake long before it.
const CONTROL_POLL: std::time::Duration = std::time::Duration::from_millis(20);

/// Idle-tick ceiling: a worker whose shard stays quiet backs its poll
/// interval off exponentially to this bound, so a long-idle threaded
/// monitor costs a couple of timer wakeups per second per worker
/// instead of fifty — at the price of control requests applying within
/// half a second (instead of one tick) on a long-quiet shard.
const CONTROL_POLL_MAX: std::time::Duration = std::time::Duration::from_millis(500);

/// A shard worker's main loop: ingest batches until told (or observed,
/// via channel disconnect) that the stream is over, applying pending
/// control-plane requests between batches (and on an idle tick, with
/// exponential backoff while the shard stays quiet), then seal every
/// flow and deliver the tail.
fn worker_loop(
    mut state: ShardState,
    rx: Receiver<ShardMsg>,
    queue: Arc<EventQueue>,
    worker: usize,
) {
    use std::sync::mpsc::RecvTimeoutError;
    let mut poll = CONTROL_POLL;
    loop {
        match rx.recv_timeout(poll) {
            Ok(ShardMsg::Batch(batch)) => {
                poll = CONTROL_POLL;
                let n = batch.len() as u64;
                state.ingest_batch(batch);
                state.control.depth_sub(worker, n);
                state.apply_control();
                state.deliver(&queue);
            }
            Ok(ShardMsg::Finish) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                // Reset the backoff when a request actually arrived —
                // an operator steering an idle monitor gets ticks at
                // full rate again.
                if state.apply_control() {
                    poll = CONTROL_POLL;
                } else {
                    poll = (poll * 2).min(CONTROL_POLL_MAX);
                }
                state.deliver(&queue);
            }
        }
    }
    state.finish();
    state.deliver(&queue);
}

/// A passive QoE monitor: feed it raw packets, read typed [`QoeEvent`]s.
///
/// Owns the flow table and one estimation engine per active flow;
/// flows idle past the configured timeout are evicted with their final
/// windows attached to the eviction event, so no tail report is ever
/// silently lost. With [`MonitorBuilder::threads`] ≥ 2 the flow table is
/// partitioned across dedicated worker threads behind bounded channels,
/// and the event stream is bounded by
/// [`MonitorBuilder::queue_capacity`] under an explicit
/// [`OverflowPolicy`]. See [`MonitorBuilder`] for configuration and the
/// [module docs](super) for a runnable example.
pub struct Monitor {
    method: EstimationMethod,
    /// Whether any configured method can consume an RTP header — gates
    /// the per-packet RTP parse-attempt on the raw ingestion path.
    wants_rtp: bool,
    vca: VcaKind,
    /// The cells shared with the shard workers and every
    /// [`MonitorHandle`] clone: counters, the bounded queue every shard
    /// pushes into, and the control plane.
    shared: MonitorHandle,
    dispatch: Dispatch,
    /// Staging buffer backing the drain iterators: what a drain moved out
    /// of the queue and has not yielded yet. It holds events between
    /// drains only when one was dropped part-way.
    drained: VecDeque<Arc<QoeEvent>>,
}

impl Monitor {
    /// Shorthand for [`MonitorBuilder::new`].
    pub fn builder(vca: VcaKind) -> MonitorBuilder {
        MonitorBuilder::new(vca)
    }

    /// [`MonitorBuilder::build`]: sizes the workers, spawns them, and
    /// wires queue, control cells, and dispatch together.
    pub(super) fn start(builder: MonitorBuilder) -> Monitor {
        let threads = match builder.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let inline = threads == 1;
        let stats = Arc::new(StatsCells::default());
        let model_bytes = builder.model.as_ref().map_or(0, |m| m.heap_bytes() as u64);
        let control = Arc::new(ControlShared::new(
            if inline { 0 } else { threads },
            model_bytes,
            builder.vca,
        ));
        // Unarmed: Block parks nobody until a runner opens its ports.
        let queue = Arc::new(EventQueue::new(builder.queue_capacity, builder.overflow));
        let shared = MonitorHandle {
            control: Arc::clone(&control),
            stats: Arc::clone(&stats),
            queue,
        };
        let wants_rtp = builder.method.is_auto()
            || matches!(
                builder.method,
                EstimationMethod::Fixed(Method::RtpHeuristic | Method::RtpMl)
            );
        let window_us = builder.config.window_us();
        let shard_state = |worker: usize| {
            ShardState::new(&builder, worker, Arc::clone(&stats), Arc::clone(&control))
        };
        let dispatch = if inline {
            Dispatch::Inline {
                shard: Box::new(shard_state(0)),
                drops: DropSummary::new(window_us),
            }
        } else {
            // The ingest channels share the event queue's capacity knob
            // (counted in batches) so one bound governs the pipeline.
            let channel_batches = (builder.queue_capacity / INGEST_BATCH).max(1);
            let mut senders = Vec::with_capacity(threads);
            let mut handles = Vec::with_capacity(threads);
            for worker in 0..threads {
                let (tx, rx) = sync_channel::<ShardMsg>(channel_batches);
                let state = shard_state(worker);
                let queue = Arc::clone(&shared.queue);
                #[expect(
                    clippy::expect_used,
                    reason = "spawn fails only on OS thread exhaustion; no recovery at this layer"
                )]
                let handle = std::thread::Builder::new()
                    .name(format!("vcaml-shard-{worker}"))
                    .spawn(move || worker_loop(state, rx, queue, worker))
                    .expect("spawn shard worker");
                senders.push(tx);
                handles.push(handle);
            }
            Dispatch::Threaded {
                port: IngestPort {
                    wants_rtp,
                    shared: shared.clone(),
                    lanes: Lanes::new(senders, control),
                    drops: DropSummary::new(window_us),
                },
                handles,
            }
        };
        Monitor {
            wants_rtp,
            method: builder.method,
            vca: builder.vca,
            shared,
            dispatch,
            drained: VecDeque::new(),
        }
    }

    /// A cloneable live [`MonitorHandle`]: snapshot counters, force a
    /// provisional flush, evict a flow, retune alert thresholds, or
    /// request a graceful stop — from any thread, without touching the
    /// monitor's `&mut` ingest surface. Shard workers apply control
    /// requests between batches (or within one poll tick when idle); an
    /// inline monitor applies them on its next `ingest`/`drain` call.
    /// The handle stays readable after [`Monitor::finish`].
    pub fn handle(&self) -> MonitorHandle {
        self.shared.clone()
    }

    /// The VCA profile the monitor was configured for.
    pub fn vca(&self) -> VcaKind {
        self.vca
    }

    /// Running ingest/emit counters. On a threaded monitor the snapshot
    /// is eventually consistent: packets still queued on a shard channel
    /// are not yet counted ([`Monitor::finish`] settles everything).
    pub fn stats(&self) -> MonitorStats {
        self.shared.stats_snapshot().stats
    }

    /// Flows currently tracked (probation included): opened minus
    /// sealed. Exact on an inline monitor, eventually consistent (like
    /// every counter) on a threaded one.
    pub fn active_flows(&self) -> usize {
        self.shared.stats_snapshot().flows_live as usize
    }

    /// Events the next [`Monitor::drain_events`] would return without
    /// waiting for anything: what is queued (on a threaded monitor, what
    /// the shard workers have delivered so far) plus what an earlier
    /// drain, dropped part-way, left staged. A monitor driven
    /// through its own front doors is its own drainer, so under
    /// [`OverflowPolicy::Block`] this can
    /// exceed [`MonitorBuilder::queue_capacity`]: only a
    /// [`MonitorRunner`](crate::runner::MonitorRunner)'s concurrent drain
    /// parks workers against the bound.
    pub fn pending_events(&self) -> usize {
        self.shared.queue.len() + self.drained.len()
    }

    /// Drains every queued event, oldest first. Flushes any partially
    /// filled ingest batches first, so a threaded monitor's workers see
    /// every packet ingested before the drain; events for packets a
    /// worker has not yet processed arrive on a later drain (per-flow
    /// order is always preserved). When events were discarded under
    /// [`OverflowPolicy::DropOldest`], the batch leads with a
    /// [`QoeEvent::Dropped`] marker counting them. Events an iterator
    /// dropped part-way did not yield stay staged, and lead the next
    /// drain.
    pub fn drain_events(&mut self) -> impl Iterator<Item = QoeEvent> + '_ {
        self.drain_shared().map(unshare)
    }

    /// [`Monitor::drain_events`] without unsharing: the events come out
    /// as the [`Arc`]s the delivery path carries, so a fan-out consumer
    /// (the runner's event bus) can hand the same allocation to any
    /// number of subscribers.
    pub fn drain_shared(&mut self) -> impl Iterator<Item = Arc<QoeEvent>> + '_ {
        self.drain_pending();
        std::iter::from_fn(|| self.drained.pop_front())
    }

    /// Blocks until the event queue has something to drain or is
    /// kicked, or for at most [`CONTROL_POLL`] — the runner's drain loop
    /// parks here between drains. Only the queue's one consumer may
    /// call it, and only while staging is empty (right after a drain).
    pub(crate) fn wait_for_events(&self) {
        debug_assert!(self.drained.is_empty(), "waiting with events staged");
        self.shared.queue.wait_for_events(CONTROL_POLL);
    }

    /// Flushes ingest batches (or, on an inline monitor, applies pending
    /// control requests) and pulls everything queued into staging.
    fn drain_pending(&mut self) {
        let queue = &self.shared.queue;
        match &mut self.dispatch {
            Dispatch::Inline { shard, .. } => {
                shard.apply_control();
                shard.deliver(queue);
            }
            Dispatch::Threaded { port, .. } => port.flush(),
            Dispatch::Done => {}
        }
        queue.drain_into(&mut self.drained);
    }

    // -- ingestion ---------------------------------------------------------

    /// Ingests one raw link-layer (Ethernet II) frame.
    pub fn ingest_frame(&mut self, ts: Timestamp, frame: &[u8]) {
        self.route(decode::wire(LinkType::Ethernet, ts, frame, self.wants_rtp));
    }

    /// Ingests one raw IP packet (pcap `LINKTYPE_RAW` and friends).
    pub fn ingest_ip(&mut self, ts: Timestamp, bytes: &[u8]) {
        self.route(decode::wire(LinkType::RawIp, ts, bytes, self.wants_rtp));
    }

    /// Ingests one pcap record, dispatching on the file's link type.
    pub fn ingest_pcap_record(&mut self, link: LinkType, rec: &PcapRecord) {
        self.route(decode::record_packet(link, rec, self.wants_rtp));
    }

    /// Ingests one pre-parsed packet on an explicit flow — the entry point
    /// for replays of recorded traces that never materialized wire bytes.
    ///
    /// On a threaded monitor this hashes the flow to its shard worker and
    /// enqueues the packet on that worker's bounded channel (batched);
    /// when the channel is full the call waits for the worker to catch
    /// up — ingest-side backpressure regardless of the event queue's
    /// overflow policy. That wait always ends: a worker parks on a full
    /// [`OverflowPolicy::Block`] queue only
    /// while a [`MonitorRunner`](crate::runner::MonitorRunner) drains it,
    /// so a monitor fed through this door, which is its own drainer,
    /// grows past the bound instead, as an inline monitor does.
    pub fn ingest_packet(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.route(decode::parsed(flow, pkt));
    }

    /// Ingests whatever a [`PacketSource`](crate::source::PacketSource)
    /// yielded.
    pub(crate) fn ingest(&mut self, pkt: SourcePacket) {
        self.route(decode::source(&pkt, self.wants_rtp));
    }

    /// Where every front door ends: the packet goes to its flow's shard,
    /// or its drop is counted into the producer's summary.
    fn route(&mut self, decoded: Decoded) {
        match &mut self.dispatch {
            Dispatch::Inline { shard, drops } => {
                let Some((flow, pkt)) = drops.admit(decoded, &self.shared) else {
                    return;
                };
                shard.ingest(flow, pkt);
                shard.apply_control();
                shard.deliver(&self.shared.queue);
            }
            Dispatch::Threaded { port, .. } => port.route(decoded),
            Dispatch::Done => unreachable!("monitor already finished"),
        }
    }

    /// Seals and reports every remaining flow, returning all queued
    /// events. On a threaded monitor this flushes every pending ingest
    /// batch, signals end-of-stream to each shard worker, joins them,
    /// and drains whatever they delivered — the end-of-stream flush
    /// neither blocks on nor is dropped by the bounded queue.
    pub fn finish(self) -> Vec<QoeEvent> {
        self.finish_shared().into_iter().map(unshare).collect()
    }

    /// [`Monitor::finish`] without unsharing — the runner's event bus
    /// consumes this so end-of-stream tails fan out allocation-free.
    pub fn finish_shared(mut self) -> Vec<Arc<QoeEvent>> {
        // Lift the queue bound (and both overflow policies) first:
        // workers flushing their sealed tails must neither park against
        // a queue nobody is draining yet nor have those tails shed by
        // DropOldest — the end-of-stream flush is lossless by contract.
        let queue = &self.shared.queue;
        queue.release();
        match std::mem::replace(&mut self.dispatch, Dispatch::Done) {
            Dispatch::Inline {
                mut shard,
                mut drops,
            } => {
                drops.close(queue);
                shard.finish();
                shard.deliver(queue);
            }
            Dispatch::Threaded { mut port, handles } => {
                port.drops.close(queue);
                port.lanes.finish();
                for handle in handles {
                    #[expect(
                        clippy::expect_used,
                        reason = "join re-raises a worker panic instead of hiding it"
                    )]
                    handle.join().expect("shard worker panicked");
                }
            }
            Dispatch::Done => unreachable!("finish runs once"),
        }
        // Behind whatever a drain dropped part-way left staged.
        queue.drain_into(&mut self.drained);
        std::mem::take(&mut self.drained).into()
    }

    /// Forks an independent ingest port off a threaded monitor's own
    /// (`None` when the monitor is inline) and arms the event queue:
    /// from here on a full `Block` queue parks shard workers until the
    /// port holder's concurrent drain makes room. Ports are how
    /// [`crate::runner::MonitorRunner`] runs one ingest thread per
    /// source: each port parses and flow-hashes its own packets and
    /// feeds the shard channels directly, so the serial dispatch section
    /// scales with the number of sources. See [`IngestPort`] for the
    /// concurrent-drainer requirement its holder takes on.
    pub(crate) fn ingest_port(&mut self) -> Option<IngestPort> {
        let Dispatch::Threaded { port, .. } = &mut self.dispatch else {
            return None;
        };
        // Flush before arming. A batch still buffered here would be sent
        // by the holder's drain (`drain_pending`) — into a channel whose
        // worker may by then be parked on the armed, full queue that only
        // that same drain empties.
        port.flush();
        self.shared.queue.arm();
        Some(port.fork())
    }
}

/// One producer's private lanes into a threaded monitor's shard workers:
/// parse, flow-hash, batch, and send happen on the port holder's thread,
/// so N ports ingest in parallel without sharing the [`Monitor`]'s
/// `&mut self`. The monitor's own front doors feed one more port, held
/// in its dispatch. Per-flow packet order within one port is preserved
/// end-to-end (same hash, same channel, same worker); packets for one
/// flow split across ports interleave in channel-arrival order.
///
/// Sends block when a shard channel is full — ingest-side backpressure.
/// A forked port's holder must guarantee a concurrent drainer (the
/// runner's event loop): forking arms the queue, so a `Block` queue can
/// otherwise park the pipeline. This is why ports are crate-internal
/// and only [`crate::runner::MonitorRunner`] forks them.
///
/// A port keeps its own parse-drop summary, over its own records: it
/// closes on the port's record clock and at the port's end of stream,
/// never on a flush.
pub(crate) struct IngestPort {
    wants_rtp: bool,
    shared: MonitorHandle,
    lanes: Lanes,
    drops: DropSummary,
}

impl IngestPort {
    /// Another port onto the same workers, with a drop summary of its own.
    fn fork(&self) -> IngestPort {
        IngestPort {
            wants_rtp: self.wants_rtp,
            shared: self.shared.clone(),
            lanes: self.lanes.fork(),
            drops: DropSummary::new(self.drops.window_us),
        }
    }

    /// Ingests whatever a [`PacketSource`](crate::source::PacketSource)
    /// yielded.
    pub(crate) fn ingest(&mut self, pkt: SourcePacket) {
        self.route(decode::source(&pkt, self.wants_rtp));
    }

    /// The packet goes onto its worker's lane, or its drop is counted into
    /// the port's summary. A closing summary parks against a full, armed
    /// `Block` queue like any producer: a forked port's holder has a
    /// concurrent drainer, and the monitor's own port is never armed
    /// against while its front doors are in use.
    fn route(&mut self, decoded: Decoded) {
        if let Some((flow, pkt)) = self.drops.admit(decoded, &self.shared) {
            self.lanes.push(flow, pkt);
        }
    }

    /// Sends every partially filled batch to its shard worker (a live
    /// source's per-packet hand-off). The drop summary stays pending:
    /// closing it here would publish one per flush, per record again.
    pub(crate) fn flush(&mut self) {
        delivered(self.lanes.flush());
    }

    /// End of this port's stream: publishes its pending drop summary and
    /// sends every partially filled batch. Call it on the ingest thread
    /// while the runner's event loop still drains, which is what frees a
    /// summary push parked on a full queue.
    pub(crate) fn finish(mut self) {
        self.drops.close(&self.shared.queue);
        self.flush();
    }
}

impl Drop for IngestPort {
    /// Best-effort tail for ports dropped without [`IngestPort::finish`]
    /// (ingest-thread panic): delivery is only guaranteed by `finish`,
    /// but don't silently strand a drop summary or full batches either.
    fn drop(&mut self) {
        self.drops.close(&self.shared.queue);
        let _ = self.lanes.flush();
    }
}

impl Drop for Monitor {
    /// A monitor dropped without [`Monitor::finish`] (caller panic,
    /// early return) must not leak shard workers parked on the bounded
    /// queue: release the queue so nothing waits, disconnect the
    /// channels so the workers run their end-of-stream seal and exit,
    /// and reap the threads. The tail events land in the released queue
    /// and are dropped with it — only `finish` promises delivery.
    fn drop(&mut self) {
        if let Dispatch::Threaded { port, handles } =
            std::mem::replace(&mut self.dispatch, Dispatch::Done)
        {
            self.shared.queue.release();
            drop(port);
            for handle in handles {
                // Don't double-panic out of a Drop during unwinding.
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = match &self.dispatch {
            Dispatch::Inline { .. } => 1,
            Dispatch::Threaded { port, .. } => port.lanes.senders.len(),
            Dispatch::Done => 0,
        };
        f.debug_struct("Monitor")
            .field("vca", &self.vca)
            .field("method", &self.method)
            .field("threads", &threads)
            .field("active_flows", &self.active_flows())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
