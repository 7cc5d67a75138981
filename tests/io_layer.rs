//! I/O-layer invariants: the runner's sink fan-out delivers
//! byte-identical event sequences to every sink, a multi-source `MonitorRunner` is
//! window-exact against sequential single-source ingest for all four
//! methods, the pcap source round-trips written captures (property
//! test), and the per-flow shed accounting survives the whole pipeline.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::netpkt::{FlowKey, LinkType, PcapWriter, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::source::{PacketSource, PcapFileSource, SourcePacket};
use vcaml_suite::vcaml::{
    AlertSink, ChannelSink, EstimationMethod, JsonLinesSink, Method, MonitorBuilder, MonitorRunner,
    OverflowPolicy, QoeEvent, ReplaySource, SummarySink, SyntheticSource, Trace, TracePacket,
    WindowReport,
};

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
        assert_eq!(
            sequential.len(),
            parallel.len(),
            "{method:?}: flow count differs"
        );
        for (flow, want) in &sequential {
            let got = parallel
                .get(flow)
                .unwrap_or_else(|| panic!("{method:?}: flow {flow} missing from multi-source run"));
            assert_eq!(got.len(), want.len(), "{method:?} {flow}: window count");
            for (w, want_r) in want {
                let got_r = &got[w];
                assert_eq!(got_r.method, want_r.method, "{method:?} window {w}");
                assert_eq!(got_r.estimate, want_r.estimate, "{method:?} window {w}");
                assert_eq!(got_r.features, want_r.features, "{method:?} window {w}");
                assert_eq!(
                    got_r.video_packets, want_r.video_packets,
                    "{method:?} window {w}"
                );
            }
        }
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
    .source(SyntheticSource::new(VcaKind::Teams, 3, 2, 5));
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
    .source(SyntheticSource::new(VcaKind::Teams, 6, 3, 9))
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

/// Alerts compose as sinks: a threshold above every achievable frame
/// rate alerts on every finalized window that carries a signal.
#[test]
fn alert_sink_fires_below_threshold() {
    let alerts = SharedBuf::default();
    let report = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(Method::IpUdpHeuristic)),
    )
    .source(SyntheticSource::new(VcaKind::Teams, 3, 1, 21))
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
