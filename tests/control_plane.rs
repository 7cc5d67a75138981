//! Control-plane invariants for `MonitorHandle` / `RunningMonitor`:
//!
//! * a graceful `stop()` mid-ingest is **prefix-exact** — the windows
//!   delivered equal a run-to-completion over exactly the packets
//!   ingested before the stop took effect, for inline and threaded
//!   monitors;
//! * `evict_flow` seals just the requested flow and surfaces its tail
//!   windows as a `FlowEvicted { reason: Requested }` event;
//! * `force_flush` produces provisional snapshots on demand without
//!   disturbing the finalized stream;
//! * `stats_snapshot` totals obey the DropOldest conservation law
//!   (delivered + dropped == the unbounded run's event count) and the
//!   per-shard depth accounting settles to zero;
//! * `stop()` + drop is deadlock-free under both overflow policies.

#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "tests match out the one event kind they check"
)]

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::netpkt::{Error as NetError, FlowKey, Timestamp};
use vcaml_suite::rtp::{VcaKind, HEADER_LEN};
use vcaml_suite::vcaml::api::RTP_PROBATION_PACKETS;
use vcaml_suite::vcaml::engine::{replay, IpUdpMlEngine};
use vcaml_suite::vcaml::source::{PacketSource, PcapFileSource, SourcePacket};
use vcaml_suite::vcaml::{
    CallbackSink, ChannelSink, EngineConfig, EstimationMethod, EvictReason, Method, MonitorBuilder,
    MonitorHandle, MonitorRunner, OverflowPolicy, QoeEvent, Trace, TracePacket, WindowReport,
};
use vcaml_suite::vcasim::synthetic_capture;

/// `calls` concurrent simulated Teams calls, read from their rendered
/// pcap bytes.
#[expect(
    clippy::expect_used,
    reason = "a test helper outside #[test] fails fast, as the tests it serves do"
)]
fn synthetic(secs: u32, calls: usize, seed: u64) -> PcapFileSource<Cursor<Vec<u8>>> {
    let capture = synthetic_capture(VcaKind::Teams, secs, calls, seed);
    PcapFileSource::new(Cursor::new(capture)).expect("a rendered pcap image")
}

fn flow_key(n: u16) -> FlowKey {
    let client = std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, n as u8 + 1));
    let server = std::net::IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, 1));
    FlowKey::canonical(server, 3478, client, 40_000 + n, 17).0
}

fn corpus_feed(seed: u64, n_calls: usize) -> Vec<(FlowKey, TracePacket)> {
    let traces: Vec<Trace> = inlab_corpus(
        VcaKind::Teams,
        &CorpusConfig {
            n_calls,
            min_secs: 6,
            max_secs: 10,
            seed,
        },
    );
    let mut feed = Vec::new();
    for (call, trace) in traces.iter().enumerate() {
        feed.extend(trace.packets.iter().map(|p| (flow_key(call as u16), *p)));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    feed
}

/// A synthetic 30 fps video flow: two ~1.1 kB packets per frame.
fn video_feed(flow: FlowKey, secs: i64) -> Vec<(FlowKey, TracePacket)> {
    let mut out = Vec::new();
    for f in 0..secs * 30 {
        let t0 = f * 33_333;
        for i in 0..2i64 {
            out.push((
                flow,
                TracePacket {
                    ts: Timestamp::from_micros(t0 + i * 300),
                    size: 1_000 + ((f % 9) * 13) as u16,
                    rtp: None,
                    truth_media: None,
                },
            ));
        }
    }
    out
}

/// Finalized windows per flow from an owned event stream.
fn windows_of(events: impl IntoIterator<Item = QoeEvent>) -> HashMap<FlowKey, Vec<WindowReport>> {
    let mut out: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
    for event in events {
        if let Some(flow) = event.flow() {
            out.entry(flow)
                .or_default()
                .extend_from_slice(event.final_reports());
        }
    }
    for reports in out.values_mut() {
        reports.sort_by_key(|r| r.window);
    }
    out
}

/// A replay source that requests a graceful stop through the handle as
/// it yields its `stop_at`-th packet — the runner checks the flag
/// before every pull, so exactly `stop_at` packets are ingested.
struct StopAfter {
    items: std::vec::IntoIter<(FlowKey, TracePacket)>,
    yielded: usize,
    stop_at: usize,
    handle: MonitorHandle,
}

impl PacketSource for StopAfter {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        let Some((flow, packet)) = self.items.next() else {
            return Ok(None);
        };
        self.yielded += 1;
        if self.yielded == self.stop_at {
            self.handle.stop();
        }
        Ok(Some(SourcePacket::Parsed { flow, packet }))
    }
}

/// The stop() acceptance criterion: windows delivered by a stopped run
/// equal a run-to-completion over exactly the ingested prefix — no
/// sealed window is lost, none is invented, for inline and threaded
/// monitors.
#[test]
fn graceful_stop_mid_ingest_is_prefix_exact() {
    let feed = corpus_feed(91, 4);
    let stop_at = feed.len() / 2;

    // Reference: the prefix, run to completion on an inline monitor.
    let mut reference = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build();
    for (flow, pkt) in &feed[..stop_at] {
        reference.ingest_packet(*flow, *pkt);
    }
    let want = windows_of(reference.finish());

    for threads in [1usize, 3] {
        let runner = MonitorRunner::new(
            MonitorBuilder::new(VcaKind::Teams)
                .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
                .threads(threads),
        );
        let handle = runner.handle();
        let (subscriber, rx) = ChannelSink::bounded(1 << 20);
        let report = runner
            .source(StopAfter {
                items: feed.clone().into_iter(),
                yielded: 0,
                stop_at,
                handle,
            })
            .sink(subscriber)
            .run();
        assert_eq!(
            report.sources[0].packets, stop_at as u64,
            "threads={threads}: the stop lands at the next packet boundary"
        );
        let got = windows_of(rx.try_iter().map(|e| (*e).clone()));
        assert_eq!(got.len(), want.len(), "threads={threads}: flow count");
        for (flow, want_reports) in &want {
            let got_reports = &got[flow];
            assert_eq!(
                got_reports.len(),
                want_reports.len(),
                "threads={threads} {flow}: window count"
            );
            for (g, w) in got_reports.iter().zip(want_reports) {
                assert_eq!(g.window, w.window, "threads={threads} {flow}");
                assert_eq!(
                    g.estimate, w.estimate,
                    "threads={threads} {flow} window {}",
                    g.window
                );
            }
        }
    }
}

/// `evict_flow` seals exactly the requested flow, now, with its tail
/// windows on the eviction event — and the end-of-stream seal neither
/// repeats it nor misses the others.
#[test]
fn evict_flow_surfaces_tail_windows_inline() {
    let a = flow_key(1);
    let b = flow_key(2);
    let mut monitor = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build();
    let mut feed = video_feed(a, 3);
    feed.extend(video_feed(b, 3));
    feed.sort_by_key(|(_, p)| p.ts);
    for (flow, pkt) in feed {
        monitor.ingest_packet(flow, pkt);
    }
    let handle = monitor.handle();
    handle.evict_flow(a);
    let mid: Vec<QoeEvent> = monitor.drain_events().collect();
    let evicted: Vec<_> = mid
        .iter()
        .filter_map(|e| match e {
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => Some((*flow, *reason, final_reports.len())),
            _ => None,
        })
        .collect();
    assert_eq!(evicted.len(), 1, "only the requested flow seals");
    assert_eq!(evicted[0].0, a);
    assert_eq!(evicted[0].1, EvictReason::Requested);
    assert!(evicted[0].2 > 0, "tail windows ride on the eviction event");

    // The other flow still seals at end of stream, exactly once.
    let tail = monitor.finish();
    let sealed: Vec<_> = tail
        .iter()
        .filter_map(|e| match e {
            QoeEvent::FlowEvicted { flow, reason, .. } => Some((*flow, *reason)),
            _ => None,
        })
        .collect();
    assert_eq!(sealed, vec![(b, EvictReason::EndOfStream)]);
}

/// The threaded path: an eviction request is applied by the owning
/// shard worker within its poll tick, without any new packet arriving.
#[test]
fn evict_flow_applies_on_idle_threaded_workers() {
    let a = flow_key(1);
    let mut monitor = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .threads(2)
        .build();
    for (flow, pkt) in video_feed(a, 3) {
        monitor.ingest_packet(flow, pkt);
    }
    // Push what's batched to the workers, then request the eviction.
    let _: Vec<QoeEvent> = monitor.drain_events().collect();
    let handle = monitor.handle();
    handle.evict_flow(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut sealed = Vec::new();
    while sealed.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        sealed.extend(monitor.drain_events().filter_map(|e| match e {
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => Some((flow, reason, final_reports.len())),
            _ => None,
        }));
    }
    assert_eq!(sealed.len(), 1, "idle worker applies the request");
    assert_eq!(sealed[0].0, a);
    assert_eq!(sealed[0].1, EvictReason::Requested);
    assert!(sealed[0].2 > 0);
    monitor.finish();
}

/// `force_flush` produces provisional snapshots on demand; the
/// finalized stream (what `final_reports` sums) is untouched.
#[test]
fn force_flush_emits_provisional_snapshots() {
    let flow = flow_key(1);
    let mut monitor = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build();
    // Half a second in: nothing finalized yet.
    for (flow, pkt) in video_feed(flow, 3).into_iter().take(30) {
        monitor.ingest_packet(flow, pkt);
    }
    let baseline: Vec<QoeEvent> = monitor.drain_events().collect();
    assert!(
        baseline.iter().all(|e| e.final_reports().is_empty()),
        "nothing finalized this early"
    );
    let handle = monitor.handle();
    handle.force_flush();
    let flushed: Vec<QoeEvent> = monitor.drain_events().collect();
    let provisional = flushed
        .iter()
        .filter(|e| {
            matches!(
                e,
                QoeEvent::WindowReport {
                    provisional: true,
                    ..
                }
            )
        })
        .count();
    assert!(provisional > 0, "forced flush yields provisional windows");
    assert!(
        flushed.iter().all(|e| e.final_reports().is_empty()),
        "provisional snapshots never enter the finalized stream"
    );
    assert_eq!(monitor.stats().provisional_reports, provisional as u64);
}

/// The DropOldest conservation law, read through the handle: delivered
/// non-marker events + the snapshot's `events_dropped` equal the
/// unbounded run's event count — and the per-shard depth accounting
/// settles to zero once the run is finished.
#[test]
fn stats_snapshot_obeys_drop_oldest_conservation() {
    let feed = corpus_feed(17, 4);

    // Reference: unbounded event count over the same feed.
    let mut unbounded = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build();
    for (flow, pkt) in &feed {
        unbounded.ingest_packet(*flow, *pkt);
    }
    let total = unbounded.finish().len();

    let mut monitor = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .threads(2)
        .queue_capacity(16)
        .overflow(OverflowPolicy::DropOldest)
        .build();
    let handle = monitor.handle();
    for (flow, pkt) in &feed {
        monitor.ingest_packet(*flow, *pkt);
    }
    let mut delivered = 0usize;
    let mut marker_count = 0u64;
    for event in monitor.finish() {
        match event {
            QoeEvent::Dropped { count, .. } => marker_count += count,
            _ => delivered += 1,
        }
    }
    assert!(marker_count > 0, "a 16-event queue must shed");

    // The handle outlives the monitor; its snapshot is now settled.
    let snapshot = handle.stats_snapshot();
    assert_eq!(snapshot.stats.events_dropped, marker_count);
    assert_eq!(
        delivered as u64 + snapshot.stats.events_dropped,
        total as u64,
        "delivered + dropped == every event the run produced"
    );
    assert_eq!(snapshot.flows_live, 0, "everything sealed");
    assert!(
        snapshot.shard_depths.iter().all(|d| *d == 0),
        "ingest-depth accounting settles to zero: {:?}",
        snapshot.shard_depths
    );
    assert_eq!(snapshot.pending_events, 0);
}

/// `stop()` (and dropping the monitor without finishing) is
/// deadlock-free under both overflow policies, with a slow subscriber
/// and a tiny queue — the worst case for wedging.
#[test]
fn stop_and_drop_are_deadlock_free_under_both_policies() {
    for policy in [OverflowPolicy::Block, OverflowPolicy::DropOldest] {
        let running = MonitorRunner::new(
            MonitorBuilder::new(VcaKind::Teams)
                .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
                .threads(2)
                .queue_capacity(8)
                .overflow(policy),
        )
        .source(synthetic(6, 3, 5))
        .sink(CallbackSink::new(|_| {
            std::thread::sleep(std::time::Duration::from_micros(200))
        }))
        .spawn();
        // Let some packets flow, then stop: join must return.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = running.stop();
        assert!(report.stats.packets > 0, "{policy:?}: ingest started");

        // Dropping an unfinished threaded monitor must reap its workers
        // without wedging either.
        let mut monitor = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2)
            .queue_capacity(8)
            .overflow(policy)
            .build();
        for (flow, pkt) in video_feed(flow_key(3), 2) {
            monitor.ingest_packet(flow, pkt);
        }
        let handle = monitor.handle();
        handle.stop();
        drop(monitor);
        assert!(handle.stop_requested());
    }
}

/// Alert-threshold retuning through the handle is live: the same event
/// stream classifies differently before and after `set_alert_fps`.
#[test]
fn alert_threshold_retunes_live() {
    let runner = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(Method::IpUdpHeuristic)),
    );
    let handle = runner.handle();
    assert_eq!(handle.alert_fps(), None);
    handle.set_alert_fps(1_000.0);
    assert_eq!(handle.alert_fps(), Some(1_000.0));

    let degraded = Arc::new(std::sync::Mutex::new(0u64));
    let counter = Arc::clone(&degraded);
    let (full, rx) = ChannelSink::bounded(1 << 20);
    let report = runner
        .source(synthetic(3, 1, 21))
        .sink(full)
        .subscribe(
            vcaml_suite::vcaml::EventFilter::all()
                .min_severity(vcaml_suite::vcaml::Severity::Warning),
            CallbackSink::new(move |_| *counter.lock().unwrap() += 1),
        )
        .run();
    // Under an unreachable bar, every event carrying a finalized window
    // (the heuristic always reports a frame rate) is degraded.
    let expect = rx
        .try_iter()
        .filter(|e| !e.final_reports().is_empty())
        .count() as u64;
    assert!(report.stats.window_reports > 0);
    assert!(expect > 0);
    assert_eq!(*degraded.lock().unwrap(), expect);
}

/// Force-flush also reaches threaded workers and `stats_snapshot`
/// reflects per-shard depths live (a smoke for BTreeMap ordering of the
/// snapshot surface more than timing, which the idle tick guarantees);
/// an inline monitor's snapshot lists no depths.
#[test]
fn force_flush_reaches_threaded_workers() {
    let mut monitor = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .threads(2)
        .build();
    // Two flows, mid-window: nothing finalized yet.
    let mut feed = video_feed(flow_key(1), 1);
    feed.extend(video_feed(flow_key(2), 1));
    feed.sort_by_key(|(_, p)| p.ts);
    for (flow, pkt) in feed.into_iter().take(40) {
        monitor.ingest_packet(flow, pkt);
    }
    let _: Vec<QoeEvent> = monitor.drain_events().collect();
    let handle = monitor.handle();
    handle.force_flush();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut provisional = 0usize;
    while provisional == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        provisional += monitor
            .drain_events()
            .filter(|e| {
                matches!(
                    e,
                    QoeEvent::WindowReport {
                        provisional: true,
                        ..
                    }
                )
            })
            .count();
    }
    assert!(provisional > 0, "idle workers apply the forced flush");
    let snapshot = handle.stats_snapshot();
    assert_eq!(snapshot.shard_depths.len(), 2, "one depth cell per worker");
    monitor.finish();

    // An inline monitor's one shard has no ingest channel to report.
    let mut inline = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .threads(1)
        .build();
    for (flow, pkt) in video_feed(flow_key(1), 1) {
        inline.ingest_packet(flow, pkt);
    }
    let snapshot = inline.handle().stats_snapshot();
    assert!(snapshot.stats.packets > 0);
    assert!(snapshot.shard_depths.is_empty(), "inline: no depth cells");
}

/// `bytes_per_flow` in a stats snapshot reflects each method's per-flow
/// memory footprint: heuristics keep frame rings in the low kilobytes,
/// the ML accumulators keep one window's value logs, and everything stays
/// bounded by one window's content — the §7 "system considerations"
/// answer in one observable number.
#[test]
fn bytes_per_flow_is_pinned_per_method() {
    let trace: Trace = inlab_corpus(
        VcaKind::Teams,
        &CorpusConfig {
            n_calls: 1,
            min_secs: 8,
            max_secs: 8,
            seed: 21,
        },
    )
    .remove(0);
    let flow = flow_key(0);

    let footprint = |method: Method| -> u64 {
        let mut monitor = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(method))
            .payload_map(trace.payload_map)
            .build();
        let handle = monitor.handle();
        for p in &trace.packets {
            monitor.ingest_packet(flow, *p);
        }
        // The footprint is published once per second of stream time, so
        // an 8 s single-flow trace has refreshed it several times by now.
        handle.stats_snapshot().bytes_per_flow
    };

    let ipudp_h = footprint(Method::IpUdpHeuristic);
    let rtp_h = footprint(Method::RtpHeuristic);
    let ipudp_ml = footprint(Method::IpUdpMl);
    let rtp_ml = footprint(Method::RtpMl);

    for (label, bytes) in [
        ("IpUdpHeuristic", ipudp_h),
        ("RtpHeuristic", rtp_h),
        ("IpUdpMl", ipudp_ml),
        ("RtpMl", rtp_ml),
    ] {
        assert!(
            (1_024..65_536).contains(&bytes),
            "{label}: {bytes} bytes/flow outside the sane O(1) band"
        );
    }
    // IpUdpMl keeps no set over the size domain and no copy of a model.
    // Past 1 KiB for the fresh engine and its table slot, its state is the
    // two value logs (a 2-byte size and a 4-byte gap per packet), retained
    // at the next power of two above the busiest video window's packet
    // count.
    let busiest = replay(
        &mut IpUdpMlEngine::new(EngineConfig::paper(VcaKind::Teams)),
        &trace,
        1,
    )
    .iter()
    .map(|r| r.video_packets)
    .max()
    .expect("the trace has windows");
    let ml_bound = 1_024 + 6 * busiest.next_power_of_two() as u64;
    assert!(
        ipudp_ml <= ml_bound,
        "IpUdpMl: {ipudp_ml} B/flow above {ml_bound} B \
         ({busiest} video packets in the busiest window)"
    );
    assert!(
        ipudp_ml > ipudp_h && rtp_ml > rtp_h,
        "ML accumulators outweigh heuristic frame rings: \
         ml {ipudp_ml}/{rtp_ml} vs heuristic {ipudp_h}/{rtp_h}"
    );

    // Flows still in RTP-confidence probation are tracked flows too: a
    // tap's short non-media flows never leave it, and each holds its
    // packet buffer until it expires. The buffer keeps a timestamp, a
    // size and a 12-byte RTP header per packet, one array per field;
    // the table's slab, probe table and schedule add ≈ 176 B/flow over
    // these 30 flows. The ceiling keeps whole 32 B `TracePacket`s out
    // (704 B/flow here); the compact buffer reads 536.
    let mut auto = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::AutoHeuristic)
        .build();
    for n in 0..30u16 {
        for k in 0..4i64 {
            let packet = TracePacket {
                ts: Timestamp::from_micros(i64::from(n) * 100_000 + k * 10_000),
                size: 200,
                rtp: None,
                truth_media: None,
            };
            auto.ingest_packet(flow_key(n), packet);
        }
    }
    let per_packet = std::mem::size_of::<Timestamp>() + std::mem::size_of::<u16>() + HEADER_LEN;
    let buffer = (RTP_PROBATION_PACKETS * per_packet) as u64;
    let probing = auto.handle().stats_snapshot().bytes_per_flow;
    assert!(
        (buffer..buffer + 256).contains(&probing),
        "probation flows: {probing} B/flow, not one {buffer} B buffer and its table share"
    );

    // No live flows (nothing ingested) → no footprint, not a division
    // artifact.
    let idle = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build();
    assert_eq!(idle.handle().stats_snapshot().bytes_per_flow, 0);
}
