//! Bounded event delivery with an explicit overflow policy.
//!
//! A [`crate::api::Monitor`] produces [`QoeEvent`]s faster than some
//! consumers drain them — a slow log shipper, a stalled dashboard, a
//! caller that only polls once per second. Before this module the event
//! queue was unbounded: a slow consumer turned into unbounded memory
//! growth. The crate-internal `EventQueue` bounds it and makes the
//! slow-consumer behaviour an explicit, configurable choice:
//!
//! * [`OverflowPolicy::Block`] — producers wait for the consumer, but
//!   only once the queue is *armed*, which happens when a
//!   [`crate::runner::MonitorRunner`] opens its ingest ports: its event
//!   loop is then a concurrent drainer, so shard workers park until it
//!   drains, their bounded ingest channels fill, and the ports' sends
//!   wait — end-to-end backpressure, no event ever lost. A queue that is
//!   not armed — any monitor driven through its own front doors, inline
//!   or threaded — has no drainer but its own caller, so parking would
//!   wait on itself: it grows past the bound instead.
//! * [`OverflowPolicy::DropOldest`] — the queue stays bounded by
//!   discarding the oldest undrained events, and the next drain reports
//!   exactly how many were lost via a leading [`QoeEvent::Dropped`]
//!   marker. Nothing blocks; freshness wins over completeness.
//!
//! The queue is the monitor's *collector*: every shard worker pushes its
//! event batches here (one lock per batch, batch order preserved), so
//! per-flow event order — which is per-shard order, since a flow lives on
//! exactly one shard — survives the merge into the outgoing stream.
//!
//! Both sides sleep only when they must, and each is woken only when it
//! sleeps: a drain notifies parked producers only when `waiters` says
//! there are any, and a push notifies the consumer only when it is
//! parked in `EventQueue::wait_for_events` (the runner's drain loop).
//! A self-drained monitor's consumer never parks, so its pushes make no
//! syscall.

use crate::api::QoeEvent;
use crate::leaf::LeafMutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;
use vcaml_netpkt::FlowKey;

/// Bound on the flows the shed-attribution maps track, per interval and
/// over the queue's lifetime. Shed *counts* stay exact past the bound —
/// only the per-flow attribution of additional flows is given up — so a
/// months-long monitor with endless flow churn cannot grow the maps (or
/// the `Monitor::stats` snapshot that clones them) without limit. Far
/// above any realistic concurrently-shedding flow population.
const MAX_ATTRIBUTED_FLOWS: usize = 4096;

/// What the monitor's bounded event queue does when a push finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait for the consumer: shard workers park on a full queue while a
    /// [`MonitorRunner`](crate::runner::MonitorRunner) drains it
    /// (end-to-end backpressure). A monitor driven through its own front
    /// doors, inline or threaded, is its own drainer and cannot wait on
    /// itself: its queue grows past the bound instead.
    #[default]
    Block,
    /// Discard the oldest undrained events and account for them with a
    /// [`QoeEvent::Dropped`] marker on the next drain.
    DropOldest,
}

struct QueueInner {
    buf: VecDeque<Arc<QoeEvent>>,
    capacity: usize,
    policy: OverflowPolicy,
    /// Events discarded since the last drain (DropOldest only).
    dropped_since_drain: u64,
    /// Flow-attributed slice of `dropped_since_drain`, keyed by flow.
    dropped_flows_since_drain: HashMap<FlowKey, u64>,
    /// Events discarded over the queue's lifetime.
    dropped_total: u64,
    /// Flow-attributed slice of `dropped_total`, keyed by flow.
    dropped_flows_total: HashMap<FlowKey, u64>,
    /// Whether `Block` may park a producer: set by [`EventQueue::arm`]
    /// once a concurrent drainer exists, cleared for good by
    /// `release()`.
    armed: bool,
    /// Set by `release()`: the capacity (and with it both policies) is
    /// lifted for good, so the end-of-stream flush can neither park nor
    /// shed tail events.
    unbounded: bool,
    /// Producers parked in `not_full.wait` right now. Raised before and
    /// lowered after the wait, both under the queue lock, so a drain that
    /// reads it under that same lock knows whether anyone needs waking.
    waiters: usize,
    /// The consumer is parked in `not_empty.wait_timeout` and nobody has
    /// signalled it yet. Set before the wait under the queue lock; the
    /// first producer or kick that sees it clears it (so one wake-up is
    /// one syscall, however many pushes race it) and notifies after
    /// releasing the lock.
    consumer_parked: bool,
    /// A [`EventQueue::kick`] the consumer has not yet returned for.
    kicked: bool,
}

/// What the queue has shed and what it holds, read under one lock — see
/// [`EventQueue::accounting`].
pub(crate) struct QueueAccounting {
    /// Events discarded over the queue's lifetime.
    pub(crate) dropped_total: u64,
    /// Flow-attributed lifetime drop counts, sorted by flow for
    /// deterministic output. Events with no flow (parse-drop summaries, markers)
    /// are in `dropped_total` but not here.
    pub(crate) dropped_by_flow: Vec<(FlowKey, u64)>,
    /// Queued events not yet drained (excludes any pending drop marker).
    pub(crate) pending: usize,
}

/// Counts a shed event against `flow`, unless the map is at
/// [`MAX_ATTRIBUTED_FLOWS`] and the flow is not yet tracked — the total
/// counters remain exact either way.
fn bump_bounded(map: &mut HashMap<FlowKey, u64>, flow: FlowKey) {
    if let Some(n) = map.get_mut(&flow) {
        *n += 1;
    } else if map.len() < MAX_ATTRIBUTED_FLOWS {
        map.insert(flow, 1);
    }
}

/// A bounded MPSC event queue shared by the monitor's shard workers (or
/// its inline ingest path) and the draining caller. See the
/// [module docs](self) for the policy semantics.
pub(crate) struct EventQueue {
    inner: LeafMutex<QueueInner>,
    not_full: Condvar,
    /// Where [`EventQueue::wait_for_events`] parks the one consumer.
    not_empty: Condvar,
    /// Queued events plus any pending drop marker — maintained under the
    /// lock, read lock-free. The per-packet drain of an otherwise idle
    /// monitor is the hot path's common case: this lets
    /// [`Self::drain_into`] answer "nothing there" with one atomic load
    /// instead of a mutex round-trip.
    approx_len: AtomicUsize,
}

impl EventQueue {
    /// An unarmed queue: under `Block` it grows past `capacity` until
    /// [`Self::arm`] is called.
    pub(crate) fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity >= 1, "zero event-queue capacity");
        EventQueue {
            approx_len: AtomicUsize::new(0),
            inner: LeafMutex::new(QueueInner {
                buf: VecDeque::new(),
                capacity,
                policy,
                dropped_since_drain: 0,
                dropped_flows_since_drain: HashMap::new(),
                dropped_total: 0,
                dropped_flows_total: HashMap::new(),
                armed: false,
                unbounded: false,
                waiters: 0,
                consumer_parked: false,
                kicked: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Pushes events in iteration order (so per-flow order is kept),
    /// applying the overflow policy per event, under one lock. Events are
    /// shared ([`Arc`]): the queue is the head of the fan-out path, and
    /// nothing downstream ever deep-copies one. A producer with nothing
    /// to push skips the call — and the lock — altogether
    /// (`ShardState::deliver`).
    ///
    /// A full `Block` queue parks the caller only while the queue is
    /// armed; otherwise it grows past the bound. `DropOldest` sheds
    /// either way.
    pub(crate) fn push(&self, events: impl IntoIterator<Item = Arc<QoeEvent>>) {
        let mut inner = self.inner.lock();
        for event in events {
            while !inner.unbounded && inner.buf.len() >= inner.capacity {
                match inner.policy {
                    OverflowPolicy::DropOldest => {
                        let shed = inner.buf.pop_front();
                        inner.dropped_since_drain += 1;
                        inner.dropped_total += 1;
                        if let Some(flow) = shed.as_deref().and_then(QoeEvent::flow) {
                            bump_bounded(&mut inner.dropped_flows_since_drain, flow);
                            bump_bounded(&mut inner.dropped_flows_total, flow);
                        }
                    }
                    OverflowPolicy::Block if inner.armed => {
                        // Publish what is already queued before parking:
                        // the consumer's lock-free emptiness check must
                        // see the backlog, or it will never take the
                        // lock and never notify us.
                        self.approx_len.store(
                            inner.buf.len() + usize::from(inner.dropped_since_drain > 0),
                            Ordering::Release,
                        );
                        // A parked consumer must hear of that backlog now:
                        // this push's own wake below is not reached until
                        // the consumer has made room, so otherwise both
                        // sides would sleep until the consumer's backstop.
                        if std::mem::take(&mut inner.consumer_parked) {
                            self.not_empty.notify_one();
                        }
                        inner.waiters += 1;
                        inner = inner.wait(&self.not_full);
                        inner.waiters -= 1;
                    }
                    // Unarmed (or released) Block: nobody drains
                    // concurrently, so grow past the bound rather than
                    // wait on ourselves.
                    OverflowPolicy::Block => break,
                }
            }
            inner.buf.push_back(event);
        }
        let len = inner.buf.len() + usize::from(inner.dropped_since_drain > 0);
        self.approx_len.store(len, Ordering::Release);
        let wake = len > 0 && std::mem::take(&mut inner.consumer_parked);
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Parks the queue's one consumer until a push leaves something to
    /// drain, a [`Self::kick`] arrives, or `timeout` passes, whichever is
    /// first. It does not park at all when events or a drop marker are
    /// already queued, or when a kick has come since the last wait; the
    /// caller drains and re-checks its own state either way.
    ///
    /// No wake-up can be lost: the consumer parks only after checking,
    /// under the queue lock, the state every push and kick change under
    /// that same lock, and it raises `consumer_parked` before releasing
    /// it. The `timeout` is a backstop, not the wake path.
    pub(crate) fn wait_for_events(&self, timeout: Duration) {
        let mut inner = self.inner.lock();
        if inner.buf.is_empty() && inner.dropped_since_drain == 0 && !inner.kicked {
            inner.consumer_parked = true;
            inner = inner.wait_timeout(&self.not_empty, timeout);
            inner.consumer_parked = false;
        }
        inner.kicked = false;
    }

    /// Wakes the consumer with nothing to drain: a parked
    /// [`Self::wait_for_events`] returns now, and the next one returns at
    /// once. The runner's ingest threads kick on their way out, so the
    /// drain learns that a source is done without waiting out its
    /// backstop.
    pub(crate) fn kick(&self) {
        let mut inner = self.inner.lock();
        inner.kicked = true;
        let wake = std::mem::take(&mut inner.consumer_parked);
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Moves every queued event to the back of `out` and returns how many
    /// that was. When events were discarded since the last drain, they
    /// are led by a [`QoeEvent::Dropped`] marker whose count — total and
    /// per flow — is exact; the discarded events were older than
    /// everything else moved.
    ///
    /// Parked producers are woken only when there are any: std's futex
    /// `Condvar` makes a `FUTEX_WAKE` syscall per `notify_all` whether or
    /// not anyone waits, and an inline monitor's queue never has a
    /// waiter. No wake-up can be lost — a producer can only start
    /// waiting while it holds the lock this reads `waiters` under.
    pub(crate) fn drain_into(&self, out: &mut VecDeque<Arc<QoeEvent>>) -> usize {
        // Common case on the per-packet drain path: nothing queued, no
        // pending drop marker — skip the lock entirely. A racing push
        // lands on the next drain, exactly as if it had arrived one
        // instruction later.
        if self.approx_len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let before = out.len();
        let mut inner = self.inner.lock();
        let dropped = std::mem::take(&mut inner.dropped_since_drain);
        if dropped > 0 {
            let mut per_flow: Vec<(FlowKey, u64)> =
                inner.dropped_flows_since_drain.drain().collect();
            per_flow.sort_unstable_by_key(|(flow, _)| *flow);
            out.push_back(Arc::new(QoeEvent::Dropped {
                count: dropped,
                per_flow,
            }));
        }
        out.append(&mut inner.buf);
        self.approx_len.store(0, Ordering::Release);
        let wake = inner.waiters > 0;
        drop(inner);
        if wake {
            self.not_full.notify_all();
        }
        out.len() - before
    }

    /// Queued events not yet drained (excludes any pending drop marker).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Lifetime shed counts, their per-flow breakdown and the queued
    /// backlog, all from one instant: one lock, so a snapshot's per-flow
    /// sum can never exceed its total.
    pub(crate) fn accounting(&self) -> QueueAccounting {
        let inner = self.inner.lock();
        let mut accounting = QueueAccounting {
            dropped_total: inner.dropped_total,
            dropped_by_flow: inner
                .dropped_flows_total
                .iter()
                .map(|(flow, n)| (*flow, *n))
                .collect(),
            pending: inner.buf.len(),
        };
        drop(inner);
        accounting
            .dropped_by_flow
            .sort_unstable_by_key(|(flow, _)| *flow);
        accounting
    }

    /// Lets a full `Block` queue park its producers from now on. Only
    /// `Monitor::ingest_port` calls it: a runner opening ports is about
    /// to drain concurrently until the monitor finishes. A no-op after
    /// [`Self::release`].
    pub(crate) fn arm(&self) {
        let mut inner = self.inner.lock();
        inner.armed = !inner.unbounded;
    }

    /// Lifts the bound for good: producers stop parking, and *neither*
    /// policy discards or delays anything further — `Block` overflows
    /// grow, `DropOldest` stops shedding. Called by `Monitor::finish`
    /// (and the monitor's `Drop`) before joining the shard workers: the
    /// end-of-stream flush, which carries every flow's sealed tail
    /// windows, must neither drop nor deadlock against a full queue.
    pub(crate) fn release(&self) {
        let mut inner = self.inner.lock();
        inner.armed = false;
        inner.unbounded = true;
        drop(inner);
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    fn ev(us: i64) -> Arc<QoeEvent> {
        Arc::new(QoeEvent::ParseDrops {
            first_ts: Timestamp::from_micros(us),
            last_ts: Timestamp::from_micros(us),
            by_reason: [0, 0, 1, 0],
        })
    }

    fn ts_of(event: &QoeEvent) -> i64 {
        let QoeEvent::ParseDrops { first_ts, .. } = event else {
            panic!("not a parse-drop summary: {event:?}");
        };
        first_ts.as_micros()
    }

    /// A `Block` queue a concurrent drainer has armed.
    fn armed(capacity: usize) -> EventQueue {
        let q = EventQueue::new(capacity, OverflowPolicy::Block);
        q.arm();
        q
    }

    /// Everything one `drain_into` moves, as a fresh batch.
    fn drain(q: &EventQueue) -> Vec<Arc<QoeEvent>> {
        let mut out = VecDeque::new();
        let moved = q.drain_into(&mut out);
        assert_eq!(moved, out.len(), "drain_into reports what it appended");
        out.into()
    }

    fn flow(n: u8) -> FlowKey {
        use std::net::{IpAddr, Ipv4Addr};
        FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, n)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 200)),
            5001,
            17,
        )
        .0
    }

    fn opened(n: u8, us: i64) -> Arc<QoeEvent> {
        Arc::new(QoeEvent::FlowOpened {
            flow: flow(n),
            ts: Timestamp::from_micros(us),
        })
    }

    #[test]
    fn drop_oldest_bounds_and_accounts() {
        let q = EventQueue::new(4, OverflowPolicy::DropOldest);
        q.push((0..10).map(ev));
        assert_eq!(q.len(), 4);
        let drained = drain(&q);
        assert!(matches!(*drained[0], QoeEvent::Dropped { count: 6, .. }));
        assert_eq!(drained.len(), 5);
        // The survivors are the newest events, in order.
        let kept: Vec<i64> = drained[1..].iter().map(|e| ts_of(e)).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(q.accounting().dropped_total, 6);
        // A fresh drain has nothing to report.
        assert!(drain(&q).is_empty());
    }

    #[test]
    fn drop_oldest_attributes_sheds_per_flow() {
        let q = EventQueue::new(2, OverflowPolicy::DropOldest);
        // Six events: four shed (two per flow), the newest two survive.
        q.push([
            opened(1, 0),
            opened(2, 1),
            opened(1, 2),
            opened(2, 3),
            opened(1, 4),
            opened(2, 5),
        ]);
        let drained = drain(&q);
        let QoeEvent::Dropped { count, per_flow } = &*drained[0] else {
            panic!("drain must lead with the drop marker");
        };
        assert_eq!(*count, 4);
        assert_eq!(per_flow.len(), 2);
        assert!(per_flow.iter().all(|(_, n)| *n == 2));
        assert_eq!(per_flow, &q.accounting().dropped_by_flow);
        // A second overflow accumulates the lifetime map but the next
        // marker counts only the fresh sheds.
        q.push([opened(1, 6), opened(1, 7), opened(1, 8)]);
        let drained = drain(&q);
        let QoeEvent::Dropped { count, per_flow } = &*drained[0] else {
            panic!("second drain leads with a fresh marker");
        };
        assert_eq!(*count, 1);
        assert_eq!(per_flow.len(), 1);
        let lifetime = q.accounting().dropped_by_flow;
        assert_eq!(lifetime.iter().map(|(_, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn drain_into_appends_behind_what_is_already_staged() {
        let q = EventQueue::new(2, OverflowPolicy::DropOldest);
        let mut staged = VecDeque::from([ev(100)]);
        q.push((0..3).map(ev));
        assert_eq!(q.drain_into(&mut staged), 3, "marker + two survivors");
        assert_eq!(ts_of(&staged[0]), 100, "staged events keep the front");
        assert!(matches!(*staged[1], QoeEvent::Dropped { count: 1, .. }));
        assert_eq!(ts_of(&staged[2]), 1);
        assert_eq!(ts_of(&staged[3]), 2);
        assert_eq!(q.drain_into(&mut staged), 0);
        assert_eq!(staged.len(), 4);
    }

    #[test]
    fn accounting_reads_total_breakdown_and_backlog_at_one_instant() {
        let q = EventQueue::new(2, OverflowPolicy::DropOldest);
        // Sheds: flow 2, one flowless drop summary, flow 1 — then two stay.
        q.push([opened(2, 0), ev(1), opened(1, 2), opened(1, 3), ev(4)]);
        let a = q.accounting();
        assert_eq!(a.dropped_total, 3);
        assert_eq!(a.dropped_by_flow, vec![(flow(1), 1), (flow(2), 1)]);
        assert_eq!(a.pending, 2);
        assert!(a.dropped_by_flow.iter().map(|(_, n)| n).sum::<u64>() <= a.dropped_total);
        // Draining empties the backlog and leaves the lifetime counts.
        assert_eq!(drain(&q).len(), 3);
        let a = q.accounting();
        assert_eq!((a.dropped_total, a.pending), (3, 0));
    }

    #[test]
    fn non_blocking_block_grows_past_bound() {
        let q = EventQueue::new(2, OverflowPolicy::Block);
        q.push((0..5).map(ev));
        assert_eq!(q.len(), 5, "an unarmed Block queue must not lose events");
        assert_eq!(q.accounting().dropped_total, 0);
        assert_eq!(drain(&q).len(), 5);
    }

    #[test]
    fn blocking_producer_waits_for_drain() {
        let q = Arc::new(armed(2));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            q2.push((0..6).map(ev));
        });
        // Drain until the producer has delivered everything.
        let mut got = 0;
        while got < 6 {
            got += drain(&q).len();
            std::thread::yield_now();
        }
        producer.join().expect("producer");
        assert_eq!(got, 6);
        assert_eq!(q.accounting().dropped_total, 0);
    }

    /// The lost-wake-up guard. A drain wakes producers only when its
    /// `waiters` read says one is parked; were that read ever stale, a
    /// producer would sleep through the drain that made room for it and
    /// this would hang (the watchdog turns the hang into a failure).
    #[test]
    fn conditional_wake_never_strands_a_parked_producer() {
        const PRODUCERS: i64 = 4;
        const PER_PRODUCER: i64 = 5_000;
        let q = Arc::new(armed(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = VecDeque::new();
                let mut next = [0i64; PRODUCERS as usize];
                let mut got = 0;
                while got < PRODUCERS * PER_PRODUCER {
                    if q.drain_into(&mut out) == 0 {
                        std::thread::yield_now();
                    }
                    for event in out.drain(..) {
                        // ts = producer * PER_PRODUCER + sequence number.
                        let ts = ts_of(&event);
                        let producer = (ts / PER_PRODUCER) as usize;
                        assert_eq!(ts % PER_PRODUCER, next[producer], "per-producer order");
                        next[producer] += 1;
                        got += 1;
                    }
                }
                let _ = done_tx.send(got);
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    // Singly and in small batches: both park mid-push.
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let n = (1 + i % 3).min(PER_PRODUCER - i);
                        q.push((i..i + n).map(|k| ev(p * PER_PRODUCER + k)));
                        i += n;
                    }
                })
            })
            .collect();
        let got = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a producer slept through its wake-up (or the consumer died)");
        assert_eq!(got, PRODUCERS * PER_PRODUCER);
        for producer in producers {
            producer.join().expect("producer");
        }
        consumer.join().expect("consumer");
        let a = q.accounting();
        assert_eq!((a.dropped_total, a.pending), (0, 0));
    }

    /// The consumer-side lost-wake-up guard. A push wakes the consumer
    /// only when `consumer_parked` says it is parked; were that wake
    /// missing or the flag read stale, the consumer would sleep out its
    /// 60 s wait with events queued, and the 10 s watchdog fails the
    /// test — the backstop cannot hide a missed wake here. (Other
    /// producers' pushes usually rescue a producer that parks mid-batch
    /// without waking the consumer, so that wake has its own test.)
    #[test]
    fn conditional_wake_never_strands_a_parked_consumer() {
        const PRODUCERS: i64 = 4;
        const PER_PRODUCER: i64 = 5_000;
        let q = Arc::new(armed(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = VecDeque::new();
                let mut next = [0i64; PRODUCERS as usize];
                let mut got = 0;
                loop {
                    q.drain_into(&mut out);
                    for event in out.drain(..) {
                        let ts = ts_of(&event);
                        let producer = (ts / PER_PRODUCER) as usize;
                        assert_eq!(ts % PER_PRODUCER, next[producer], "per-producer order");
                        next[producer] += 1;
                        got += 1;
                    }
                    if got == PRODUCERS * PER_PRODUCER {
                        break;
                    }
                    q.wait_for_events(Duration::from_secs(60));
                }
                let _ = done_tx.send(got);
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    // Singly and in small batches: a batch of three into
                    // a capacity-2 queue parks mid-push.
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let n = (1 + i % 3).min(PER_PRODUCER - i);
                        q.push((i..i + n).map(|k| ev(p * PER_PRODUCER + k)));
                        i += n;
                    }
                })
            })
            .collect();
        let got = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the consumer slept through its wake-up (or died)");
        assert_eq!(got, PRODUCERS * PER_PRODUCER);
        for producer in producers {
            producer.join().expect("producer");
        }
        consumer.join().expect("consumer");
    }

    /// Starts a consumer parked in a 60 s `wait_for_events` and returns
    /// once it is parked; the channel fires when the wait returns.
    fn parked_consumer(q: &Arc<EventQueue>) -> std::sync::mpsc::Receiver<()> {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(q);
        std::thread::spawn(move || {
            waiter.wait_for_events(Duration::from_secs(60));
            let _ = tx.send(());
        });
        while !q.inner.lock().consumer_parked {
            std::thread::yield_now();
        }
        rx
    }

    #[test]
    fn push_wakes_a_parked_consumer() {
        let q = Arc::new(armed(2));
        let woke = parked_consumer(&q);
        q.push([ev(0)]);
        woke.recv_timeout(Duration::from_secs(10))
            .expect("a push left the consumer parked");
    }

    #[test]
    fn producer_parking_mid_batch_wakes_the_consumer() {
        let q = Arc::new(armed(2));
        let woke = parked_consumer(&q);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push((0..3).map(ev)))
        };
        woke.recv_timeout(Duration::from_secs(10))
            .expect("producer and consumer both parked");
        // Make room for the rest of the batch, as the woken drain would.
        let mut got = 0;
        while got < 3 {
            got += drain(&q).len();
            std::thread::yield_now();
        }
        producer.join().expect("producer");
    }

    #[test]
    fn kick_wakes_a_parked_consumer() {
        let q = Arc::new(armed(2));
        let woke = parked_consumer(&q);
        q.kick();
        woke.recv_timeout(Duration::from_secs(10))
            .expect("a kick left the consumer parked");
        assert!(!q.inner.lock().kicked, "the wait consumes the kick");
    }

    #[test]
    fn kick_before_the_wait_returns_at_once() {
        let q = armed(2);
        q.kick();
        let start = std::time::Instant::now();
        q.wait_for_events(Duration::from_secs(60));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "an earlier kick was lost"
        );
        assert!(!q.inner.lock().kicked, "the wait consumes the kick");
    }

    #[test]
    fn release_stops_drop_oldest_shedding() {
        // After release, the end-of-stream flush must not lose events
        // even under DropOldest: the queue grows past its bound instead.
        let q = EventQueue::new(2, OverflowPolicy::DropOldest);
        q.push((0..5).map(ev));
        assert_eq!(q.accounting().dropped_total, 3, "bounded phase sheds");
        q.release();
        q.push((5..20).map(ev));
        assert_eq!(
            q.accounting().dropped_total,
            3,
            "released phase never sheds"
        );
        let drained = drain(&q);
        assert!(matches!(*drained[0], QoeEvent::Dropped { count: 3, .. }));
        assert_eq!(drained.len(), 1 + 2 + 15);
    }

    #[test]
    fn release_unblocks_producers() {
        let q = Arc::new(armed(1));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            q2.push((0..4).map(ev));
        });
        q.release();
        producer.join().expect("producer");
        assert_eq!(drain(&q).len(), 4);
    }

    #[test]
    fn release_disarms_for_good() {
        let q = armed(1);
        q.release();
        q.arm();
        q.push((0..4).map(ev));
        assert_eq!(drain(&q).len(), 4, "a released queue never parks again");
    }
}
