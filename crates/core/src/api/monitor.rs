//! The [`Monitor`] itself: dispatch (inline, or lanes onto shard worker
//! threads), the drain side, and the crate-internal [`IngestPort`].

use super::decode::{self, Decoded};
use super::event::StatsCells;
use super::shard::{RoutedPacket, ShardState};
use super::{
    EstimationMethod, MonitorBuilder, MonitorStats, OverflowPolicy, ParseDropReason, QoeEvent,
    INGEST_BATCH, TABLE_SHARDS,
};
use crate::backpressure::EventQueue;
use crate::control::{ControlShared, MonitorHandle};
use crate::engine::Method;
use crate::leaf::leaf_held;
use crate::source::SourcePacket;
use crate::trace::TracePacket;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

/// Counts a parse drop under its reason and queues its event: one
/// allocation (the delivery `Arc`) and one queue lock per dropped record.
/// `may_wait` as for [`EventQueue::push`].
fn parse_drop(shared: &MonitorHandle, ts: Timestamp, reason: ParseDropReason, may_wait: bool) {
    shared.stats.parse_drops[reason.index()].fetch_add(1, Relaxed);
    let event = Arc::new(QoeEvent::ParseDrop { ts, reason });
    shared.queue.push(std::iter::once(event), may_wait);
}

/// One message on a shard worker's bounded ingest channel.
enum ShardMsg {
    /// Packets for this worker's flows, in arrival order.
    Batch(Vec<RoutedPacket>),
    /// End of stream: seal every flow and exit.
    Finish,
}

/// One producer's lanes onto a threaded monitor's shard workers: a
/// bounded channel and a batch buffer per worker. A packet is routed by
/// its flow's [`FlowKey::hash64`] onto one lane, and a lane's batch is
/// sent when it reaches [`INGEST_BATCH`] packets or on an explicit flush
/// — batching amortizes the channel hand-off, the dominant dispatch
/// cost. The [`Monitor`] and every [`IngestPort`] own a set each; what
/// differs between them is only *how* a batch is sent, so every method
/// takes that send policy as a closure.
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
    fn push(
        &mut self,
        flow: FlowKey,
        pkt: TracePacket,
        send: impl FnMut(&SyncSender<ShardMsg>, ShardMsg),
    ) {
        // Stable flow → worker routing: the low bits of the one
        // `FlowKey::hash64` computed per packet on the dispatching
        // thread. The hash rides the channel with the packet; inside a
        // worker the table's shard selection takes the top 16 bits and
        // slot probing starts from bits 16.., so the three routing
        // layers stay uncorrelated while the key is hashed exactly once
        // (see `FlowTable`).
        let hash = flow.hash64();
        let worker = (hash % self.senders.len() as u64) as usize;
        self.batches[worker].push((hash, flow, pkt));
        if self.batches[worker].len() >= INGEST_BATCH {
            self.send_lane(worker, send);
            // A lane that filled once fills again: size its next batch
            // up front instead of growing into it.
            self.batches[worker].reserve(INGEST_BATCH);
        }
    }

    /// Sends every partially filled batch to its shard worker.
    fn flush(&mut self, mut send: impl FnMut(&SyncSender<ShardMsg>, ShardMsg)) {
        for worker in 0..self.senders.len() {
            self.send_lane(worker, &mut send);
        }
    }

    fn send_lane(&mut self, worker: usize, mut send: impl FnMut(&SyncSender<ShardMsg>, ShardMsg)) {
        if self.batches[worker].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batches[worker]);
        self.control.depth_add(worker, batch.len() as u64);
        send(&self.senders[worker], ShardMsg::Batch(batch));
    }

    /// End of stream: flushes every lane, tells each worker to seal its
    /// flows and exit, and disconnects. Blocking sends are safe here:
    /// the caller has released the queue, which never parks a worker
    /// again, so every channel drains.
    fn finish(mut self) {
        let mut send = |tx: &SyncSender<ShardMsg>, msg| {
            debug_assert!(!leaf_held(), "blocking shard send under a leaf guard");
            #[expect(
                clippy::expect_used,
                reason = "shard worker channel lives until the caller's join"
            )]
            tx.send(msg).expect("shard worker alive");
        };
        self.flush(&mut send);
        for tx in &self.senders {
            send(tx, ShardMsg::Finish);
        }
    }
}

/// The send policy of producers that have a concurrent drainer (ingest
/// ports): block until the worker's channel has room.
fn blocking_send(sender: &SyncSender<ShardMsg>, msg: ShardMsg) {
    debug_assert!(!leaf_held(), "blocking shard send under a leaf guard");
    #[expect(
        clippy::expect_used,
        reason = "ingest ports are dropped before shard workers shut down"
    )]
    sender
        .send(msg)
        .expect("shard workers outlive ingest ports");
}

/// How packets reach the per-flow engines: on the caller's thread, or
/// hashed across dedicated shard workers.
enum Dispatch {
    /// `threads == 1`: one shard state driven inline — no threads, no
    /// channels, identical to the pre-parallel monitor.
    Inline(Box<ShardState>),
    /// `threads ≥ 2`: the monitor's own lanes onto the workers.
    Threaded {
        lanes: Lanes,
        handles: Vec<JoinHandle<()>>,
    },
    /// Placeholder after [`Monitor::finish`] has taken the dispatch
    /// state (so the monitor's `Drop` has nothing left to reap).
    Done,
}

/// Hands one batch to a shard worker without ever deadlocking on our own
/// pipeline. Under [`OverflowPolicy::Block`] a worker can be parked on
/// the full event queue while the dispatcher waits on that worker's full
/// channel — each waiting on the other — so there (`stage_on_full`) a
/// full channel is answered by draining the queue, which wakes the
/// worker, and staging the events for the caller's next `drain_events`.
/// Under `DropOldest` workers never park, so a plain blocking send is
/// both safe and required: draining would quietly turn the bounded queue
/// into unbounded staging.
fn dispatch_batch(
    sender: &SyncSender<ShardMsg>,
    queue: &EventQueue,
    drained: &mut VecDeque<Arc<QoeEvent>>,
    stage_on_full: bool,
    mut msg: ShardMsg,
) {
    if !stage_on_full {
        debug_assert!(!leaf_held(), "blocking shard send under a leaf guard");
        #[expect(
            clippy::expect_used,
            reason = "shard workers are owned by this struct and outlive dispatch by construction"
        )]
        sender.send(msg).expect("shard workers outlive dispatch");
        return;
    }
    loop {
        match sender.try_send(msg) {
            Ok(()) => return,
            Err(std::sync::mpsc::TrySendError::Full(back)) => {
                msg = back;
                if queue.drain_into(drained) == 0 {
                    // Channel full, queue empty: the worker is mid-batch.
                    std::thread::yield_now();
                }
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                unreachable!("shard workers outlive dispatch")
            }
        }
    }
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
/// Owns the sharded flow table and one estimation engine per active flow;
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
    /// Whether a full ingest channel must be answered by draining the
    /// event queue into staging (true only when workers can park on it:
    /// threaded + `Block`) — see [`dispatch_batch`].
    stage_on_full: bool,
    /// Staging buffer backing the `drain_events` iterator. Visible to
    /// the facade's white-box tests, which stage into it directly.
    pub(super) drained: VecDeque<Arc<QoeEvent>>,
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
        // A single-threaded monitor must never park on its own queue
        // (the producer is the consumer), so Block only waits when shard
        // workers exist.
        let queue = Arc::new(EventQueue::new(
            builder.queue_capacity,
            builder.overflow,
            !inline,
        ));
        let table_shards = (TABLE_SHARDS / threads).max(1);
        let shard_state = |worker: usize| {
            ShardState::new(
                &builder,
                table_shards,
                worker,
                Arc::clone(&stats),
                Arc::clone(&control),
            )
        };
        let dispatch = if inline {
            Dispatch::Inline(Box::new(shard_state(0)))
        } else {
            // The ingest channels share the event queue's capacity knob
            // (counted in batches) so one bound governs the pipeline.
            let channel_batches = (builder.queue_capacity / INGEST_BATCH).max(1);
            let mut senders = Vec::with_capacity(threads);
            let mut handles = Vec::with_capacity(threads);
            for worker in 0..threads {
                let (tx, rx) = sync_channel::<ShardMsg>(channel_batches);
                let state = shard_state(worker);
                let queue = Arc::clone(&queue);
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
                lanes: Lanes::new(senders, Arc::clone(&control)),
                handles,
            }
        };
        Monitor {
            wants_rtp: builder.method.is_auto()
                || matches!(
                    builder.method,
                    EstimationMethod::Fixed(Method::RtpHeuristic | Method::RtpMl)
                ),
            method: builder.method,
            vca: builder.vca,
            stage_on_full: !inline && builder.overflow == OverflowPolicy::Block,
            shared: MonitorHandle {
                control,
                stats,
                queue,
            },
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
    /// the shard workers have delivered so far) plus what an
    /// [`Monitor::ingest_packet`] has already moved out of the queue into
    /// staging while it waited on a full shard channel.
    pub fn pending_events(&self) -> usize {
        self.shared.queue.len() + self.drained.len()
    }

    /// Drains every queued event, oldest first. Flushes any partially
    /// filled ingest batches first, so a threaded monitor's workers see
    /// every packet ingested before the drain; events for packets a
    /// worker has not yet processed arrive on a later drain (per-flow
    /// order is always preserved). When events were discarded under
    /// [`OverflowPolicy::DropOldest`], the batch leads with a
    /// [`QoeEvent::Dropped`] marker counting them.
    pub fn drain_events(&mut self) -> impl Iterator<Item = QoeEvent> + '_ {
        self.drain_pending();
        self.drained.drain(..).map(unshare)
    }

    /// [`Monitor::drain_events`] without unsharing: the events come out
    /// as the [`Arc`]s the delivery path carries, so a fan-out consumer
    /// (the runner's event bus) can hand the same allocation to any
    /// number of subscribers.
    pub fn drain_shared(&mut self) -> impl Iterator<Item = Arc<QoeEvent>> + '_ {
        self.drain_pending();
        self.drained.drain(..)
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
            Dispatch::Inline(shard) => {
                shard.apply_control();
                shard.deliver(queue);
            }
            Dispatch::Threaded { lanes, .. } => lanes.flush(|tx, msg| {
                dispatch_batch(tx, queue, &mut self.drained, self.stage_on_full, msg)
            }),
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
    /// overflow policy. While waiting it drains any ready events into
    /// the staging buffer (returned by the next
    /// [`Monitor::drain_events`]), so a worker parked on a full `Block`
    /// queue is always woken and the pipeline cannot deadlock on itself.
    pub fn ingest_packet(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.route(decode::parsed(flow, pkt));
    }

    /// Ingests whatever a [`PacketSource`](crate::source::PacketSource)
    /// yielded.
    pub(crate) fn ingest(&mut self, pkt: SourcePacket) {
        self.route(decode::source(&pkt, self.wants_rtp));
    }

    /// Where every front door ends: the packet goes to its flow's shard,
    /// or its drop is counted and reported.
    fn route(&mut self, decoded: Decoded) {
        let (flow, pkt) = match decoded {
            Ok(routed) => routed,
            Err((ts, reason)) => {
                // The caller *is* the queue's consumer: parking here
                // against a full Block queue would be waiting on itself
                // (workers only widen the queue, they never drain it),
                // so the drop marker goes in without waiting.
                parse_drop(&self.shared, ts, reason, false);
                return;
            }
        };
        let queue = &self.shared.queue;
        match &mut self.dispatch {
            Dispatch::Inline(shard) => {
                shard.ingest(flow, pkt);
                shard.apply_control();
                shard.deliver(queue);
            }
            Dispatch::Threaded { lanes, .. } => lanes.push(flow, pkt, |tx, msg| {
                dispatch_batch(tx, queue, &mut self.drained, self.stage_on_full, msg)
            }),
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
            Dispatch::Inline(mut shard) => {
                shard.finish();
                shard.deliver(queue);
            }
            Dispatch::Threaded { lanes, handles } => {
                lanes.finish();
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
        // Behind whatever earlier dispatches staged, as every drain.
        queue.drain_into(&mut self.drained);
        std::mem::take(&mut self.drained).into()
    }

    /// Opens an independent ingest port on a threaded monitor (`None`
    /// when the monitor is inline). Ports are how
    /// [`crate::runner::MonitorRunner`] runs one ingest thread per
    /// source: each port parses and flow-hashes its own packets and
    /// feeds the shard channels directly, so the serial dispatch section
    /// scales with the number of sources. See [`IngestPort`] for the
    /// concurrent-drainer requirement its holder takes on.
    pub(crate) fn ingest_port(&self) -> Option<IngestPort> {
        match &self.dispatch {
            Dispatch::Threaded { lanes, .. } => Some(IngestPort {
                wants_rtp: self.wants_rtp,
                shared: self.shared.clone(),
                lanes: lanes.fork(),
            }),
            Dispatch::Inline(_) | Dispatch::Done => None,
        }
    }
}

/// One source's private lanes into a threaded monitor's shard workers:
/// parse, flow-hash, batch, and send happen on the port holder's thread,
/// so N ports ingest in parallel without sharing the [`Monitor`]'s
/// `&mut self`. Per-flow packet order within one port is preserved
/// end-to-end (same hash, same channel, same worker); packets for one
/// flow split across ports interleave in channel-arrival order.
///
/// Sends block when a shard channel is full — ingest-side backpressure.
/// The holder must guarantee a concurrent drainer (the runner's event
/// loop), or a `Block` queue can park the pipeline; this is why ports
/// are crate-internal and only [`crate::runner::MonitorRunner`] hands
/// them out.
pub(crate) struct IngestPort {
    wants_rtp: bool,
    shared: MonitorHandle,
    lanes: Lanes,
}

impl IngestPort {
    /// Ingests whatever a [`PacketSource`](crate::source::PacketSource)
    /// yielded.
    pub(crate) fn ingest(&mut self, pkt: SourcePacket) {
        match decode::source(&pkt, self.wants_rtp) {
            Ok((flow, pkt)) => self.lanes.push(flow, pkt, blocking_send),
            // Unlike the monitor's own drop path this may park against a
            // full Block queue: the port holder is an ingest thread, and
            // the runner's event loop is the concurrent drainer that
            // frees it.
            Err((ts, reason)) => parse_drop(&self.shared, ts, reason, true),
        }
    }

    /// Sends every partially filled batch to its shard worker. Call
    /// before dropping the port so no tail packet is left behind.
    pub(crate) fn flush(&mut self) {
        self.lanes.flush(blocking_send);
    }
}

impl Drop for IngestPort {
    /// Best-effort tail flush for ports dropped without [`IngestPort::flush`]
    /// (ingest-thread panic): delivery is only guaranteed after an
    /// explicit flush, but don't silently strand full batches either.
    fn drop(&mut self) {
        self.lanes.flush(|tx, msg| {
            let _ = tx.send(msg);
        });
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
        if let Dispatch::Threaded { lanes, handles } =
            std::mem::replace(&mut self.dispatch, Dispatch::Done)
        {
            self.shared.queue.release();
            drop(lanes);
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
            Dispatch::Inline(_) => 1,
            Dispatch::Threaded { lanes, .. } => lanes.senders.len(),
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
