//! `MonitorRunner`: sources in, one monitor, a subscriber bus out —
//! with a live control plane.
//!
//! The runner ties the pluggable I/O layer together: any number of
//! [`PacketSource`]s feed one [`Monitor`], and every drained
//! [`Arc<QoeEvent>`](crate::api::QoeEvent) is published on an
//! [`EventBus`] to every subscriber whose [`EventFilter`] matches — the
//! same shared allocation for all of them, evaluated once per event on
//! the drain thread, so fan-out never deep-copies and filtered-out
//! subscribers cost nothing. On a threaded monitor each source gets its
//! **own ingest thread with its own ingest port**: the per-packet parse,
//! flow hash, and channel hand-off — the serial section of the parallel
//! monitor — run once per source instead of once per monitor, so ingest
//! scales with sources the way engine work already scales with shard
//! workers. Per-flow packet order within one source is preserved end to
//! end; flows should not span sources.
//!
//! A runner can run two ways:
//!
//! * [`MonitorRunner::run`] — block the calling thread to completion
//!   (batch jobs, tests, benches);
//! * [`MonitorRunner::spawn`] — a supervised background run: the whole
//!   pipeline moves to a supervisor thread and the caller keeps a
//!   [`RunningMonitor`] whose cloneable [`MonitorHandle`] observes and
//!   steers it live — `stats_snapshot()`, `force_flush()`,
//!   `evict_flow()`, alert-threshold retuning, and graceful `stop()`
//!   (ingest ports check the stop flag between packets, flush what they
//!   hold, and the run seals every flow: nothing produced before the
//!   stop is lost).
//!
//! On a threaded monitor the runner's event loop parks on the event
//! queue between drains and is woken by the next publish (or by an
//! ingest thread ending), so an event reaches the bus one thread
//! wake-up after its shard delivers it, and an idle run wakes the loop
//! only at its 20 ms backstop.
//!
//! The runner's event loop is the queue's consumer, so the monitor's
//! backpressure semantics hold unchanged: under
//! [`OverflowPolicy::Block`](crate::api::OverflowPolicy) a slow
//! subscriber slows the drain, fills the queue, parks the shard workers,
//! fills the ingest channels, and finally stalls the sources —
//! end-to-end backpressure from sink to source. Under `DropOldest` the
//! subscribers see exact `QoeEvent::Dropped` markers instead.
//!
//! ```
//! use std::io::Cursor;
//! use vcaml::api::{EstimationMethod, MonitorBuilder};
//! use vcaml::runner::MonitorRunner;
//! use vcaml::sink::CountingSink;
//! use vcaml::source::PcapFileSource;
//! use vcaml::Method;
//! use vcaml_rtp::VcaKind;
//! use vcaml_vcasim::synthetic_capture;
//!
//! // One simulated call per tap; distinct seeds keep their flows apart.
//! let tap = |seed| {
//!     let capture = synthetic_capture(VcaKind::Teams, 2, 1, seed);
//!     PcapFileSource::new(Cursor::new(capture)).expect("a pcap header")
//! };
//! // Two taps, two ingest threads, two shard workers — run in the
//! // background, observed through the handle, then joined.
//! let running = MonitorRunner::new(
//!     MonitorBuilder::new(VcaKind::Teams)
//!         .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
//!         .threads(2),
//! )
//! .source(tap(5))
//! .source(tap(6))
//! .sink(CountingSink::default())
//! .spawn();
//! let handle = running.handle();
//! let report = running.join();
//! assert_eq!(report.sources.len(), 2);
//! assert!(report.sources.iter().all(|s| s.error.is_none()));
//! assert_eq!(report.stats.flows_opened, 2);
//! assert!(report.events > 0);
//! // The handle outlives the run: counters are settled after the join.
//! assert_eq!(handle.stats_snapshot().stats.flows_opened, 2);
//! ```

use crate::api::{IngestPort, Monitor, MonitorBuilder, MonitorStats};
use crate::backpressure::EventQueue;
use crate::bus::{EventBus, EventFilter};
use crate::control::{MonitorHandle, StopToken};
use crate::sink::EventSink;
use crate::source::{PacketSource, SourcePacket};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What one source contributed to a run.
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// Packets pulled from the source (before parse classification).
    pub packets: u64,
    /// The read error that ended the source early, if any. A source that
    /// errors stops; the run continues with the others.
    pub error: Option<String>,
}

/// The outcome of [`MonitorRunner::run`] (or a joined
/// [`RunningMonitor`]).
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// The monitor's final counters, settled after `finish()` — unlike a
    /// mid-run [`Monitor::stats`] snapshot, nothing is still in flight.
    pub stats: MonitorStats,
    /// Events published to the bus (each event counts once no matter
    /// how many subscribers observed it).
    pub events: u64,
    /// Per-source packet counts and errors, in configuration order.
    pub sources: Vec<SourceReport>,
}

/// Drives N packet sources through one monitor onto an [`EventBus`] of
/// M subscribers.
///
/// Construct with a [`MonitorBuilder`] (the runner builds the monitor)
/// or an already-built [`Monitor`] via [`MonitorRunner::with_monitor`],
/// add sources and subscribers, then [`MonitorRunner::run`] to
/// completion or [`MonitorRunner::spawn`] a supervised background run.
/// See the [module docs](self) for the threading and backpressure
/// model.
pub struct MonitorRunner {
    monitor: Monitor,
    sources: Vec<Box<dyn PacketSource + Send>>,
    bus: EventBus,
}

impl MonitorRunner {
    /// A runner over a monitor built from `builder`.
    pub fn new(builder: MonitorBuilder) -> Self {
        MonitorRunner::with_monitor(builder.build())
    }

    /// A runner over an already-built monitor.
    pub fn with_monitor(monitor: Monitor) -> Self {
        let handle = monitor.handle();
        let mut bus = EventBus::new(handle.alert_thresholds());
        // Route drain-side telemetry (per-severity events, per-method
        // windows) into the monitor's shared state so every handle's
        // stats_snapshot() carries it.
        bus.attach_telemetry(&handle);
        MonitorRunner {
            monitor,
            sources: Vec::new(),
            bus,
        }
    }

    /// A cloneable [`BusHandle`](crate::bus::BusHandle) for attaching
    /// subscribers after the run has started — the mechanism behind the
    /// daemon's `SUBSCRIBE` verb. Late subscribers observe a suffix of
    /// the stream starting at the drain loop's next publish.
    pub fn bus_handle(&mut self) -> crate::bus::BusHandle {
        self.bus.handle()
    }

    /// A live [`MonitorHandle`] onto the runner's monitor — available
    /// before the run starts, so sources can take a
    /// [stop token](crate::control::MonitorHandle::stop_token) and
    /// alert thresholds can be tuned up front.
    pub fn handle(&self) -> MonitorHandle {
        self.monitor.handle()
    }

    /// Adds a packet source. On a threaded monitor every source ingests
    /// on its own thread; on an inline monitor sources are drained
    /// sequentially, in configuration order.
    pub fn source(mut self, source: impl PacketSource + Send + 'static) -> Self {
        self.sources.push(Box::new(source));
        self
    }

    /// Subscribes a sink to the full event stream (an unfiltered
    /// subscription); every subscriber observes its events in
    /// subscription order.
    pub fn sink(self, sink: impl EventSink + Send + 'static) -> Self {
        self.subscribe(EventFilter::all(), sink)
    }

    /// Subscribes a sink to the slice of the stream `filter` selects.
    /// The filter is evaluated once per event on the drain thread;
    /// events it rejects never reach the sink.
    pub fn subscribe(mut self, filter: EventFilter, sink: impl EventSink + Send + 'static) -> Self {
        self.bus.subscribe(filter, sink);
        self
    }

    /// Runs every source to completion (or until a graceful
    /// [`stop`](crate::control::MonitorHandle::stop)), publishes all
    /// events to the bus, seals the monitor, and flushes the
    /// subscribers. The end-of-run flush is lossless: `finish()` lifts
    /// the queue bound, so every flow's sealed tail reaches the bus
    /// under either overflow policy.
    pub fn run(self) -> RunnerReport {
        let MonitorRunner {
            mut monitor,
            sources,
            mut bus,
        } = self;
        let handle = monitor.handle();
        let n_sources = sources.len();

        // One ingest port per source — threaded monitors only. An inline
        // monitor (or a portless run) falls back to sequential ingestion
        // on this thread.
        let ports: Option<Vec<IngestPort>> = (0..n_sources)
            .map(|_| monitor.ingest_port())
            .collect::<Option<Vec<_>>>();

        let source_reports = match ports {
            Some(ports) if !ports.is_empty() => {
                run_threaded(&mut monitor, sources, ports, &mut bus, &handle)
            }
            _ => run_inline(&mut monitor, sources, &mut bus, &handle),
        };

        for event in monitor.drain_shared() {
            bus.publish(&event);
        }
        for event in monitor.finish_shared() {
            bus.publish(&event);
        }
        bus.flush();
        RunnerReport {
            // finish() joined the workers, so the counters are settled.
            stats: handle.stats_snapshot().stats,
            events: bus.published(),
            sources: source_reports,
        }
    }

    /// Starts a supervised background run: the whole pipeline (sources,
    /// monitor, bus) moves to a supervisor thread and this returns
    /// immediately with a [`RunningMonitor`] — a cloneable live
    /// [`MonitorHandle`] plus the join point for the final
    /// [`RunnerReport`]. Stop it gracefully with
    /// [`RunningMonitor::stop`] (or any handle clone's `stop()` +
    /// [`RunningMonitor::join`]).
    pub fn spawn(self) -> RunningMonitor {
        let handle = self.monitor.handle();
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion; no recovery at this layer"
        )]
        let supervisor = std::thread::Builder::new()
            .name("vcaml-runner".into())
            .spawn(move || self.run())
            .expect("spawn runner supervisor");
        RunningMonitor { handle, supervisor }
    }
}

impl std::fmt::Debug for MonitorRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorRunner")
            .field("sources", &self.sources.len())
            .field("subscribers", &self.bus.subscribers())
            .finish_non_exhaustive()
    }
}

/// A supervised background run started by [`MonitorRunner::spawn`]:
/// observe and steer it through [`RunningMonitor::handle`], end it with
/// [`RunningMonitor::join`] (wait for the sources) or
/// [`RunningMonitor::stop`] (graceful stop, then join).
///
/// Dropping a `RunningMonitor` without joining detaches the run: it
/// continues to completion on its supervisor thread (any handle clone
/// can still stop it), but its report is lost.
pub struct RunningMonitor {
    handle: MonitorHandle,
    supervisor: std::thread::JoinHandle<RunnerReport>,
}

impl RunningMonitor {
    /// A cloneable live handle onto the running monitor.
    pub fn handle(&self) -> MonitorHandle {
        self.handle.clone()
    }

    /// Whether the run has completed (its report is ready to
    /// [`join`](RunningMonitor::join) without blocking).
    pub fn is_finished(&self) -> bool {
        self.supervisor.is_finished()
    }

    /// Waits for the run to complete and returns its report.
    ///
    /// # Panics
    /// Propagates a panic from the supervisor thread.
    #[expect(
        clippy::expect_used,
        reason = "join re-raises the supervisor panic instead of hiding it"
    )]
    pub fn join(self) -> RunnerReport {
        self.supervisor.join().expect("runner supervisor panicked")
    }

    /// Requests a graceful stop and waits for the run to wind down:
    /// ingest ports stop pulling at the next packet boundary, in-flight
    /// packets flush to the shards, every flow is sealed, and every
    /// event produced before the stop reaches the subscribers. Returns
    /// the settled report.
    pub fn stop(self) -> RunnerReport {
        self.handle.stop();
        self.join()
    }
}

impl std::fmt::Debug for RunningMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningMonitor")
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

/// The one pull loop: hands `source`'s packets to `ingest` until the
/// stream ends, a read fails, or a graceful stop is requested (checked
/// between packets).
fn pump(
    source: &mut dyn PacketSource,
    stop: &StopToken,
    mut ingest: impl FnMut(SourcePacket),
) -> SourceReport {
    let mut packets = 0u64;
    let mut error = None;
    while !stop.is_stopped() {
        match source.next_packet() {
            Ok(Some(pkt)) => {
                packets += 1;
                ingest(pkt);
            }
            Ok(None) => break,
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    SourceReport { packets, error }
}

/// Sequential fallback: drive every source on the caller's thread,
/// draining to the bus after each packet (the inline monitor produces
/// events synchronously, so this is maximal freshness at no extra
/// cost).
fn run_inline(
    monitor: &mut Monitor,
    sources: Vec<Box<dyn PacketSource + Send>>,
    bus: &mut EventBus,
    handle: &MonitorHandle,
) -> Vec<SourceReport> {
    let stop = handle.stop_token();
    sources
        .into_iter()
        .map(|mut source| {
            pump(&mut *source, &stop, |pkt| {
                monitor.ingest(pkt);
                for event in monitor.drain_shared() {
                    bus.publish(&event);
                }
            })
        })
        .collect()
}

/// Marks one ingest thread done and wakes the drain, however the thread
/// ends: end of stream, graceful stop, read error or panic. A wake-up
/// sent by a thread that is still running would not do: the drain
/// could see it unfinished, park again and sleep out its backstop.
struct IngestDone<'a> {
    running: &'a AtomicUsize,
    queue: &'a EventQueue,
}

impl Drop for IngestDone<'_> {
    fn drop(&mut self) {
        // Release pairs with the drain loop's Acquire load: once it reads
        // zero, every port's final flush has happened.
        self.running.fetch_sub(1, Ordering::Release);
        self.queue.kick();
    }
}

/// Threaded path: one ingest thread per source, each with its own port;
/// the caller's thread is the event loop, draining to the bus as events
/// are published until every ingest thread is done. Between drains it
/// parks on the event queue ([`Monitor::wait_for_events`]); a push
/// wakes it only when it is parked, so a busy drain makes no syscall,
/// and each ingest thread wakes it on the way out. It never spins: on a
/// shared box a spinning drain takes the core a shard worker or a paced
/// source needs. That loop is what keeps a `Block` queue live — workers
/// it parks are woken by our drains. Each ingest thread finishes its
/// port on the way out (its tail batches and its pending parse-drop
/// summary), so a stop loses nothing already pulled.
#[expect(
    clippy::expect_used,
    reason = "join re-raises an ingest panic instead of hiding it"
)]
fn run_threaded(
    monitor: &mut Monitor,
    sources: Vec<Box<dyn PacketSource + Send>>,
    ports: Vec<IngestPort>,
    bus: &mut EventBus,
    handle: &MonitorHandle,
) -> Vec<SourceReport> {
    let running = AtomicUsize::new(sources.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .zip(ports)
            .map(|(mut source, port)| {
                let stop = handle.stop_token();
                let running = &running;
                scope.spawn(move || {
                    let _done = IngestDone {
                        running,
                        queue: &handle.shared.queue,
                    };
                    // Declared after `_done`, so dropped before it: a
                    // panicking thread's tail flush precedes the wake,
                    // and so does `finish`'s drop summary.
                    let mut port = port;
                    // Live sources (taps, paced replays) hand every
                    // packet straight to its shard worker: at wall-clock
                    // rates the batch would otherwise sit half-filled
                    // for seconds, starving the workers — and every
                    // live observer — of traffic that already arrived.
                    let live = source.is_live();
                    let report = pump(&mut *source, &stop, |pkt| {
                        port.ingest(pkt);
                        if live {
                            port.flush();
                        }
                    });
                    port.finish();
                    report
                })
            })
            .collect();
        loop {
            for event in monitor.drain_shared() {
                bus.publish(&event);
            }
            if running.load(Ordering::Acquire) == 0 {
                break;
            }
            monitor.wait_for_events();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect()
    })
}
