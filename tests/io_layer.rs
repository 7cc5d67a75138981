//! I/O-layer invariants: the runner's sink fan-out delivers
//! byte-identical event sequences to every sink, a multi-source `MonitorRunner` is
//! window-exact against sequential single-source ingest for all four
//! methods, the pcap source round-trips written captures (property
//! test), the per-flow shed accounting survives the whole pipeline, a
//! paced (live) threaded run yields the closed-loop run's events, and the
//! parse-drop summaries are a function of the record stream alone.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::io::{Cursor, Write};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::netpkt::pcap::PcapRecord;
use vcaml_suite::netpkt::{Error as NetError, FlowKey, LinkType, PcapWriter, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::source::{PacketSource, PcapFileSource, SourcePacket};
use vcaml_suite::vcaml::{
    AlertSink, CallbackSink, ChannelSink, EstimationMethod, JsonLinesSink, Method, Monitor,
    MonitorBuilder, MonitorRunner, OverflowPolicy, Paced, QoeEvent, ReplaySource, Summary,
    SummarySink, Trace, TracePacket, WindowReport,
};
use vcaml_suite::vcasim::synthetic_capture;

/// `calls` concurrent simulated Teams calls, read from their rendered
/// pcap bytes.
fn synthetic(secs: u32, calls: usize, seed: u64) -> PcapFileSource<Cursor<Vec<u8>>> {
    let capture = synthetic_capture(VcaKind::Teams, secs, calls, seed);
    PcapFileSource::new(Cursor::new(capture)).expect("a rendered pcap image")
}

/// A `Write` handle tests can keep after handing a sink ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("buf poisoned").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn flow_key(n: u16) -> FlowKey {
    let client = IpAddr::V4(Ipv4Addr::new(10, 0, (n / 250) as u8, (n % 250) as u8 + 1));
    let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
    FlowKey::canonical(server, 3478, client, 40_000 + n, 17).0
}

/// One flow per trace, interleaved in global arrival order.
fn mixed_feed(traces: &[Trace], calls: impl Iterator<Item = usize>) -> Vec<(FlowKey, TracePacket)> {
    let mut feed: Vec<(FlowKey, TracePacket)> = Vec::new();
    for call in calls {
        let key = flow_key(call as u16);
        feed.extend(traces[call].packets.iter().map(|p| (key, *p)));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    feed
}

/// Every finalized window per flow from a (shared) event stream.
fn final_windows(
    events: impl Iterator<Item = Arc<QoeEvent>>,
) -> HashMap<FlowKey, BTreeMap<u64, WindowReport>> {
    let mut out: HashMap<FlowKey, BTreeMap<u64, WindowReport>> = HashMap::new();
    for event in events {
        let Some(flow) = event.flow() else { continue };
        for report in event.final_reports() {
            let dup = out
                .entry(flow)
                .or_default()
                .insert(report.window, report.clone());
            assert!(dup.is_none(), "duplicate final window {}", report.window);
        }
    }
    out
}

/// The tentpole parity criterion: N sources on N ingest threads feeding
/// one monitor must produce exactly the windows sequential single-source
/// ingest produces, for every method — multi-ingest changes wall-clock,
/// never numbers.
#[test]
fn multi_source_runner_matches_sequential_ingest_for_all_methods() {
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 6,
            min_secs: 8,
            max_secs: 14,
            seed: 57,
        },
    );
    let payload_map = traces[0].payload_map;
    let run = |method: Method, feeds: Vec<Vec<(FlowKey, TracePacket)>>, threads: usize| {
        let (subscriber, rx) = ChannelSink::bounded(1 << 20);
        let mut runner = MonitorRunner::new(
            MonitorBuilder::new(vca)
                .method(EstimationMethod::Fixed(method))
                .payload_map(payload_map)
                .threads(threads),
        )
        .sink(subscriber);
        for feed in feeds {
            runner = runner.source(ReplaySource::from_packets(feed));
        }
        runner.run();
        final_windows(rx.try_iter())
    };
    // Split the fleet across two "taps" by call parity — flows are
    // disjoint across sources, as the runner contract requires.
    let tap_a = mixed_feed(&traces, (0..traces.len()).filter(|c| c % 2 == 0));
    let tap_b = mixed_feed(&traces, (0..traces.len()).filter(|c| c % 2 == 1));
    let everything = mixed_feed(&traces, 0..traces.len());
    for method in Method::ALL {
        let sequential = run(method, vec![everything.clone()], 1);
        let parallel = run(method, vec![tap_a.clone(), tap_b.clone()], 2);
        assert_same_windows(&format!("{method:?}"), &sequential, &parallel);
    }
}

/// Window-exact agreement of two runs: the same flows, and per flow the
/// same finalized windows with the same method, estimate, features and
/// video-packet count.
fn assert_same_windows(
    label: &str,
    want: &HashMap<FlowKey, BTreeMap<u64, WindowReport>>,
    got: &HashMap<FlowKey, BTreeMap<u64, WindowReport>>,
) {
    assert_eq!(want.len(), got.len(), "{label}: flow count differs");
    for (flow, want) in want {
        assert!(got.contains_key(flow), "{label}: flow {flow} missing");
        let got = &got[flow];
        assert_eq!(got.len(), want.len(), "{label} {flow}: window count");
        for (w, want_r) in want {
            let got_r = &got[w];
            assert_eq!(got_r.method, want_r.method, "{label} window {w}");
            assert_eq!(got_r.estimate, want_r.estimate, "{label} window {w}");
            assert_eq!(got_r.features, want_r.features, "{label} window {w}");
            assert_eq!(
                got_r.video_packets, want_r.video_packets,
                "{label} window {w}"
            );
        }
    }
}

/// A live stream equals the closed-loop one: a synthetic capture paced
/// at 200× through a two-worker runner (per-packet port flush, events
/// woken onto the bus as they are published) yields exactly the events
/// an inline run over the same capture does — the same count, and per
/// flow the same final windows — under both auto modes and every fixed
/// method.
#[test]
fn paced_threaded_run_matches_the_closed_loop_run() {
    let capture = || synthetic(4, 3, 13);
    let run = |method: EstimationMethod, live: bool| {
        let (subscriber, rx) = ChannelSink::bounded(1 << 20);
        let builder = MonitorBuilder::new(VcaKind::Teams).method(method);
        let runner = if live {
            MonitorRunner::new(builder.threads(2)).source(Paced::with_speed(capture(), 200.0))
        } else {
            MonitorRunner::new(builder.threads(1)).source(capture())
        };
        let report = runner.sink(subscriber).run();
        assert!(report.sources.iter().all(|s| s.error.is_none()));
        (report.events, final_windows(rx.try_iter()))
    };
    let methods = [EstimationMethod::AutoHeuristic, EstimationMethod::AutoMl]
        .into_iter()
        .chain(Method::ALL.map(EstimationMethod::Fixed));
    for method in methods {
        let (closed_events, closed) = run(method, false);
        let (live_events, live) = run(method, true);
        assert!(!closed.is_empty(), "{method:?}: the capture sealed windows");
        assert_eq!(live_events, closed_events, "{method:?}: event count");
        assert_same_windows(&format!("{method:?} paced"), &closed, &live);
    }
}

/// Two simulated calls over 5 s with rejected records spliced in: drops
/// in seconds 0, 1, 3 and 4 (none in 2), a pre-parsed packet with a
/// negative timestamp, and a record stamped 1.2 s arriving at 3.6 s (a
/// clock step back). Five summaries close over it, whoever ingests it:
/// [0.2, 0.4] s, [1.5] s, [−5 µs], [1.2, 3.5] s and, at end of stream,
/// [4.5] s — seven drops.
fn feed_with_rejects() -> Vec<SourcePacket> {
    let mut arp = [0u8; 42];
    arp[12..14].copy_from_slice(&[0x08, 0x06]);
    let mut bad_version = [0u8; 14 + 40];
    bad_version[12..14].copy_from_slice(&[0x08, 0x00]);
    bad_version[14] = 0x75;
    let record = |ms: i64, data: &[u8]| SourcePacket::Record {
        link: LinkType::Ethernet,
        record: PcapRecord {
            ts: Timestamp::from_millis(ms),
            orig_len: data.len() as u32,
            data: data.to_vec().into(),
        },
    };
    // (where in the stream, in µs of capture time; what arrives there)
    let mut feed: Vec<(i64, SourcePacket)> = vec![
        (200_000, record(200, &arp)),
        (400_000, record(400, &[0u8; 10])),
        (1_500_000, record(1500, &bad_version)),
        (
            2_700_000,
            SourcePacket::Parsed {
                flow: flow_key(1),
                packet: TracePacket {
                    ts: Timestamp::from_micros(-5),
                    size: 1100,
                    rtp: None,
                    truth_media: None,
                },
            },
        ),
        (3_500_000, record(3500, &arp)),
        (3_600_000, record(1200, &arp)),
        (4_500_000, record(4500, &[0u8; 10])),
    ];
    let mut calls = synthetic(5, 2, 21);
    while let Some(pkt) = calls.next_packet().expect("a rendered capture reads") {
        feed.push((pkt.ts().as_micros(), pkt));
    }
    feed.sort_by_key(|(at, _)| *at);
    feed.into_iter().map(|(_, pkt)| pkt).collect()
}

/// A fixed packet list as a source; `live` sources get the runner's
/// per-packet port flush.
struct Feed {
    packets: std::vec::IntoIter<SourcePacket>,
    live: bool,
}

impl PacketSource for Feed {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        Ok(self.packets.next())
    }

    fn is_live(&self) -> bool {
        self.live
    }
}

/// Every record of a one-call, 3 s capture.
fn records(seed: u64) -> Vec<SourcePacket> {
    let mut capture = synthetic(3, 1, seed);
    let mut out = Vec::new();
    while let Some(pkt) = capture.next_packet().expect("a rendered capture reads") {
        out.push(pkt);
    }
    out
}

/// Four live one-call sources. Live sources hand every packet to its
/// worker at once, so a worker parks on a full queue within a few
/// packets.
fn live_sources(runner: MonitorRunner) -> MonitorRunner {
    (0..4u64).fold(runner, |runner, seed| {
        runner.source(Feed {
            packets: records(40 + seed).into_iter(),
            live: true,
        })
    })
}

/// Feeds one source packet through the monitor's own front doors.
fn ingest(monitor: &mut Monitor, pkt: &SourcePacket) {
    match pkt {
        SourcePacket::Record { link, record } => monitor.ingest_pcap_record(*link, record),
        SourcePacket::Parsed { flow, packet } => monitor.ingest_packet(*flow, *packet),
    }
}

/// Runs `feed` through a `threads`-worker runner; returns the sorted
/// `parse_drop` lines, the settled stats and a `Summary` of the stream.
fn run_feed(feed: Vec<SourcePacket>, threads: usize, live: bool) -> (Vec<String>, u64, Summary) {
    let seen = Arc::new(Mutex::new((Vec::new(), Summary::default())));
    let sink = Arc::clone(&seen);
    let report = MonitorRunner::new(MonitorBuilder::new(VcaKind::Teams).threads(threads))
        .source(Feed {
            packets: feed.into_iter(),
            live,
        })
        .sink(CallbackSink::new(move |event| {
            let (lines, summary) = &mut *sink.lock().expect("sink state");
            summary.observe(event);
            if event.tag() == "parse_drop" {
                lines.push(event.to_json_line());
            }
        }))
        .run();
    let (mut lines, summary) = std::mem::take(&mut *seen.lock().expect("sink state"));
    lines.sort();
    (lines, report.stats.parse_drops, summary)
}

/// The drop summaries depend on the records alone: an inline monitor, a
/// two-worker runner over a batch source and one over a live source
/// (whose port is flushed after every packet) publish the same
/// `parse_drop` lines, whose counts add up to the drop counter. A
/// summary closed on a flush, a drain or wall time would differ.
#[test]
fn drop_summaries_are_a_function_of_the_record_stream() {
    let feed = feed_with_rejects();
    let mut monitor = MonitorBuilder::new(VcaKind::Teams).build();
    let mut inline = Vec::new();
    let mut collect = |events: &mut dyn Iterator<Item = QoeEvent>| {
        inline.extend(
            events
                .filter(|e| e.tag() == "parse_drop")
                .map(|e| e.to_json_line()),
        );
    };
    for pkt in &feed {
        ingest(&mut monitor, pkt);
        collect(&mut monitor.drain_events());
    }
    let drops = monitor.stats().parse_drops;
    collect(&mut monitor.finish().into_iter());
    inline.sort();
    assert_eq!(drops, 7);
    assert_eq!(
        inline.len(),
        5,
        "one summary per dropping interval: {inline:#?}"
    );
    let counted: u64 = inline
        .iter()
        .map(|line| {
            let count = line.split(r#""count":"#).nth(1).expect("a count");
            let digits: String = count.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().expect("an integer count")
        })
        .sum();
    assert_eq!(counted, drops, "the summaries count every drop once");
    assert!(inline.contains(
        &r#"{"type":"parse_drop","first_ts_us":1200000,"last_ts_us":3500000,"count":2,"by_reason":{"truncated":0,"malformed":0,"not_udp":2,"negative_timestamp":0}}"#
            .to_string()
    ));
    for live in [false, true] {
        let (lines, drops, _) = run_feed(feed.clone(), 2, live);
        assert_eq!(drops, 7, "live: {live}");
        assert_eq!(lines, inline, "threaded, live: {live}");
    }
}

/// The `SummarySink` rollup counts dropped records, not summaries.
#[test]
fn summary_rollup_counts_every_dropped_record() {
    let feed = feed_with_rejects();
    for threads in [1, 2] {
        let (lines, drops, summary) = run_feed(feed.clone(), threads, false);
        assert!(lines.len() < drops as usize);
        assert_eq!(summary.parse_drops, drops, "threads: {threads}");
    }
}

/// Sink fan-out: every sink on the runner's list observes the
/// byte-identical event sequence, in order.
#[test]
fn tee_delivers_byte_identical_sequences_to_every_sink() {
    let bufs: Vec<SharedBuf> = (0..3).map(|_| SharedBuf::default()).collect();
    let direct = SharedBuf::default();
    let mut runner = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2),
    )
    .source(synthetic(3, 2, 5));
    for buf in &bufs {
        runner = runner.sink(JsonLinesSink::new(buf.clone()));
    }
    let report = runner.sink(JsonLinesSink::new(direct.clone())).run();
    assert!(report.events > 0, "the run produced events");
    let want = direct.bytes();
    assert!(!want.is_empty());
    assert_eq!(
        want.iter().filter(|b| **b == b'\n').count() as u64,
        report.events,
        "one JSON line per delivered event"
    );
    for (i, buf) in bufs.iter().enumerate() {
        assert_eq!(buf.bytes(), want, "sink {i} diverged");
    }
}

/// Per-flow shed accounting survives the whole pipeline: what the
/// `Dropped` markers attribute to each flow is what `MonitorStats`
/// reports, and the `SummarySink` rollup surfaces it.
#[test]
fn per_flow_shed_accounting_reaches_summary_and_stats() {
    let table = SharedBuf::default();
    let (subscriber, rx) = ChannelSink::bounded(1 << 20);
    let report = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2)
            .queue_capacity(4)
            .overflow(OverflowPolicy::DropOldest),
    )
    .source(synthetic(6, 3, 9))
    .sink(SummarySink::new(table.clone()))
    .sink(subscriber)
    // A deliberately slow consumer: the drain loop is the queue's only
    // consumer, so stalling it mid-run is what makes the 4-event
    // DropOldest queue shed (a fast drain would keep it empty).
    .sink(vcaml_suite::vcaml::CallbackSink::new(|_| {
        std::thread::sleep(std::time::Duration::from_millis(2))
    }))
    .run();
    let mut marker_total = 0u64;
    let mut marker_by_flow: BTreeMap<FlowKey, u64> = BTreeMap::new();
    for event in rx.try_iter() {
        if let QoeEvent::Dropped { count, per_flow } = &*event {
            marker_total += count;
            for (flow, n) in per_flow {
                *marker_by_flow.entry(*flow).or_insert(0) += n;
            }
        }
    }
    assert!(marker_total > 0, "a 4-event queue must shed mid-stream");
    assert_eq!(report.stats.events_dropped, marker_total);
    let stats_by_flow: BTreeMap<FlowKey, u64> =
        report.stats.dropped_by_flow.iter().copied().collect();
    assert_eq!(stats_by_flow, marker_by_flow, "stats match the markers");
    let rendered = String::from_utf8(table.bytes()).expect("utf8");
    assert!(
        rendered.contains(&format!("{marker_total} events shed")),
        "summary surfaces the shed total: {rendered}"
    );
}

/// Only a runner's drain parks workers, and then the bound holds: a
/// two-worker run over a 4-event `Block` queue with a slow sink never
/// lets the queue hold more than 4 events, drops nothing, and delivers
/// what the inline run does.
#[test]
fn runner_block_queue_never_exceeds_its_bound() {
    let builder = || {
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
    };
    let inline = MonitorRunner::new(builder())
        .source(synthetic(6, 3, 9))
        .run();
    let runner = MonitorRunner::new(
        builder()
            .threads(2)
            .queue_capacity(4)
            .overflow(OverflowPolicy::Block),
    );
    let handle = runner.handle();
    let peak = Arc::new(Mutex::new((0usize, 0u64)));
    let seen = Arc::clone(&peak);
    let report = runner
        .source(synthetic(6, 3, 9))
        .sink(CallbackSink::new(move |event| {
            let pending = handle.stats_snapshot().pending_events;
            let (most, dropped) = &mut *seen.lock().expect("sink state");
            *most = (*most).max(pending);
            *dropped += u64::from(matches!(event, QoeEvent::Dropped { .. }));
            // Slow enough that the workers outrun the drain and park.
            std::thread::sleep(std::time::Duration::from_micros(300));
        }))
        .run();
    let (most, dropped) = *peak.lock().expect("sink state");
    assert!(
        most <= 4,
        "the queue held {most} events, past its bound of 4"
    );
    assert_eq!(
        (dropped, report.stats.events_dropped),
        (0, 0),
        "Block drops nothing"
    );
    assert_eq!(report.events, inline.events, "every event delivered");
    assert_eq!(report.stats.window_reports, inline.stats.window_reports);
}

/// A threaded monitor fed directly, with a partial batch still in its
/// own lanes, then handed to a runner at capacity 1 with a slow sink:
/// the run completes and loses nothing. Forking the runner's ports flushes
/// that batch before it arms the queue; a batch left behind would be sent
/// by the runner's drain, into a channel whose worker may already be
/// parked on the armed, full queue only that drain empties.
#[test]
fn handed_over_monitor_with_a_buffered_batch_completes() {
    let builder = || {
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
    };
    let direct = records(30);
    let mut inline = builder().build();
    for pkt in &direct {
        ingest(&mut inline, pkt);
    }
    let inline = live_sources(MonitorRunner::with_monitor(inline)).run();
    for round in 0..8 {
        let direct = direct.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut monitor = builder()
                .threads(2)
                .queue_capacity(1)
                .overflow(OverflowPolicy::Block)
                .build();
            // Full batches reach the workers, whose events fill the
            // queue; the tail stays buffered in the monitor's lanes.
            for pkt in &direct {
                ingest(&mut monitor, pkt);
            }
            let delivered = Arc::new(Mutex::new(0u64));
            let count = Arc::clone(&delivered);
            let report = live_sources(MonitorRunner::with_monitor(monitor))
                .sink(CallbackSink::new(move |_| {
                    *count.lock().expect("sink state") += 1;
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }))
                .run();
            let delivered = *delivered.lock().expect("sink state");
            let _ = done_tx.send((report, delivered));
        });
        let (report, delivered) = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("round {round}: the hand-over did not complete: {e}"));
        worker.join().expect("the run's thread");
        assert_eq!(delivered, report.events);
        assert_eq!(report.stats.events_dropped, 0);
        assert_eq!(report.stats.packets, inline.stats.packets);
        assert_eq!(report.stats.flows_opened, inline.stats.flows_opened);
        assert_eq!(report.stats.window_reports, inline.stats.window_reports);
        assert_eq!(
            report.events, inline.events,
            "round {round}: every event delivered"
        );
    }
}

/// Alerts compose as sinks: a threshold above every achievable frame
/// rate alerts on every finalized window that carries a signal.
#[test]
fn alert_sink_fires_below_threshold() {
    let alerts = SharedBuf::default();
    let report = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(Method::IpUdpHeuristic)),
    )
    .source(synthetic(3, 1, 21))
    .sink(AlertSink::new(alerts.clone(), 1_000.0))
    .run();
    assert!(report.stats.window_reports > 0);
    let text = String::from_utf8(alerts.bytes()).expect("utf8");
    assert_eq!(
        text.lines().count() as u64,
        report.stats.window_reports,
        "every finalized window alerts under an unreachable threshold"
    );
    assert!(text.lines().all(|l| l.contains("\"type\":\"alert\"")));
}

proptest! {
    // A pcap capture written by `PcapWriter` comes back record-exact
    // through `PcapFileSource`: same count, timestamps, lengths, bytes.
    #[test]
    fn pcap_source_roundtrips_written_captures(
        records in proptest::collection::vec(
            (0i64..4_000_000_000i64, proptest::collection::vec(any::<u8>(), 0..200)),
            1..40,
        )
    ) {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("header");
        for (us, data) in &records {
            w.write_packet(Timestamp::from_micros(*us), data).expect("record");
        }
        let bytes = w.finish().expect("flush");
        let mut source = PcapFileSource::new(std::io::Cursor::new(bytes)).expect("open");
        let mut got = Vec::new();
        while let Some(pkt) = source.next_packet().expect("read") {
            let SourcePacket::Record { link, record } = pkt else {
                panic!("pcap sources yield raw records");
            };
            prop_assert_eq!(link, LinkType::Ethernet);
            prop_assert_eq!(record.orig_len as usize, record.data.len());
            got.push((record.ts.as_micros(), record.data.to_vec()));
        }
        prop_assert_eq!(got, records);
    }
}
