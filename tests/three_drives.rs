//! One corpus, every drive, one event stream.
//!
//! A small generated capture — three simulated calls, short flows that
//! auto-method monitors decide in probation or at their seal, IPv6 flows
//! and rejected records — runs under every method setting through four
//! drives: an inline `Monitor` fed through its front doors, an inline
//! `MonitorRunner`, a two-worker `Monitor` fed through its front doors,
//! and a two-worker runner over a `Paced` source. Each stream reduces to
//! a per-flow-ordered digest: every flow's JSON lines in the order it
//! published them, flows sorted, and the parse-drop summaries in stream
//! order. The digests agree across the drives and equal a committed
//! literal per method, and `fps_mae` against the simulator's truth
//! equals a committed literal too. A change that moves any output on
//! purpose updates the literals and says so.
//!
//! Idle seals land the same way on every worker: each of the two
//! workers owns a call that runs to the end of the capture, and every
//! other flow ends more than one idle timeout before that, so every
//! shard's clock passes every idle deadline (asserted below).

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use rand::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_suite::netpkt::pcap::PcapRecord;
use vcaml_suite::netpkt::{
    Error as NetError, EtherType, EthernetRepr, FlowKey, Ipv4Repr, Ipv6Repr, LinkType, MacAddr,
    Timestamp, UdpRepr,
};
use vcaml_suite::rtp::{RtpHeader, VcaKind};
use vcaml_suite::vcaml::sink::report_fps;
use vcaml_suite::vcaml::source::{PacketSource, SourcePacket};
use vcaml_suite::vcaml::{
    build_samples, CallbackSink, EstimationMethod, EvictReason, Method, Monitor, MonitorBuilder,
    MonitorRunner, Paced, PipelineOpts, QoeEvent, TracePacket,
};

const VCA: VcaKind = VcaKind::Teams;
const CALL_SECS: u32 = 6;
const IDLE_TIMEOUT_S: i64 = 2;
/// Every flow but the calls ends before this, one idle timeout and more
/// before the calls do.
const SHORT_FLOWS_END_US: i64 = 3_000_000;

const IP4: usize = 20;
const UDP: usize = 8;

/// The committed per-method digests and frame-rate errors (`None` would
/// mean no window carries a frame rate).
const EXPECTED: [(EstimationMethod, u64, Option<f64>); 6] = [
    (
        EstimationMethod::Fixed(Method::IpUdpHeuristic),
        0xeae3_8887_ca83_e089,
        Some(4.388888888888889),
    ),
    (
        EstimationMethod::Fixed(Method::RtpHeuristic),
        0x698a_48ac_38eb_2e59,
        Some(2.1666666666666665),
    ),
    (
        EstimationMethod::Fixed(Method::IpUdpMl),
        0xca61_7272_c01f_d7da,
        Some(5.1326479076479075),
    ),
    (
        EstimationMethod::Fixed(Method::RtpMl),
        0x7b1b_7398_9f73_b14e,
        Some(5.093416305916305),
    ),
    (
        EstimationMethod::AutoHeuristic,
        0xc87e_cc76_aeed_cd30,
        Some(3.111111111111111),
    ),
    (
        EstimationMethod::AutoMl,
        0x3196_1b68_fd07_4f6b,
        Some(4.949368686868687),
    ),
];

struct Corpus {
    records: Vec<SourcePacket>,
    /// Per call flow, the true frame rate of each second.
    truth: HashMap<FlowKey, Vec<f64>>,
    calls: Vec<FlowKey>,
    /// When each call's last packet arrives.
    calls_end_us: Vec<i64>,
}

fn ethernet(ethertype: EtherType) -> EthernetRepr {
    EthernetRepr {
        src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        ethertype,
    }
}

/// Ethernet + IPv4 header around `payload_len` zero bytes.
fn ip4_frame(src: [u8; 4], dst: [u8; 4], protocol: u8, payload_len: usize) -> Vec<u8> {
    let mut frame = vec![0u8; 14 + IP4 + payload_len];
    ethernet(EtherType::Ipv4).emit(&mut frame);
    Ipv4Repr {
        src,
        dst,
        protocol,
        payload_len,
        ttl: 58,
        ident: 0,
    }
    .emit(&mut frame[14..]);
    frame
}

fn udp4_frame(src: ([u8; 4], u16), dst: ([u8; 4], u16), payload: &[u8]) -> Vec<u8> {
    let mut frame = ip4_frame(src.0, dst.0, 17, UDP + payload.len());
    frame[14 + IP4 + UDP..].copy_from_slice(payload);
    UdpRepr {
        src_port: src.1,
        dst_port: dst.1,
    }
    .emit_v4(&mut frame[14 + IP4..], payload.len(), src.0, dst.0);
    frame
}

/// A raw IPv6/UDP packet (no link header) carrying `payload_len` zeros.
fn udp6_packet(host: u8, payload_len: usize) -> Vec<u8> {
    let mut packet = vec![0u8; 40 + UDP + payload_len];
    let mut src = [0u8; 16];
    src[..2].copy_from_slice(&[0x20, 0x01]);
    src[15] = host;
    let mut dst = src;
    dst[15] = 0xfe;
    Ipv6Repr {
        src,
        dst,
        next_header: 17,
        payload_len: UDP + payload_len,
        hop_limit: 64,
    }
    .emit(&mut packet);
    let udp = &mut packet[40..];
    udp[0..2].copy_from_slice(&(40_000 + u16::from(host)).to_be_bytes());
    udp[2..4].copy_from_slice(&443u16.to_be_bytes());
    udp[4..6].copy_from_slice(&((UDP + payload_len) as u16).to_be_bytes());
    packet
}

fn record(link: LinkType, ts_us: i64, data: Vec<u8>) -> SourcePacket {
    SourcePacket::Record {
        link,
        record: PcapRecord {
            ts: Timestamp::from_micros(ts_us),
            orig_len: data.len() as u32,
            data: data.into(),
        },
    }
}

fn flow4(a: ([u8; 4], u16), b: ([u8; 4], u16)) -> FlowKey {
    FlowKey::canonical(a.0.into(), a.1, b.0.into(), b.1, 17).0
}

fn corpus() -> Corpus {
    let mut rng = StdRng::seed_from_u64(58);
    let mut timed: Vec<(i64, SourcePacket)> = Vec::new();
    let mut truth = HashMap::new();
    let mut calls = Vec::new();
    let mut calls_end_us = Vec::new();
    let server = ([203, 0, 113, 10], 3478);
    let traces = inlab_corpus(
        VCA,
        &CorpusConfig {
            n_calls: 3,
            min_secs: CALL_SECS,
            max_secs: CALL_SECS,
            seed: 58,
        },
    );
    for (i, call) in traces.iter().enumerate() {
        let client = ([10, 58, 0, i as u8 + 1], 50_001 + i as u16);
        for p in &call.packets {
            let mut payload = vec![0u8; usize::from(p.size) - IP4 - UDP];
            match p.rtp {
                Some(h) => h.emit(&mut payload),
                // DTLS-looking, so it never parses as RTP.
                None if !payload.is_empty() => payload[0] = 0x16,
                None => {}
            }
            let ts = p.ts.as_micros();
            timed.push((
                ts,
                record(LinkType::Ethernet, ts, udp4_frame(server, client, &payload)),
            ));
        }
        let flow = flow4(server, client);
        truth.insert(flow, call.truth.iter().map(|t| t.fps).collect());
        calls.push(flow);
        calls_end_us.push(call.packets.last().map_or(0, |p| p.ts.as_micros()));
    }
    // Short flows, decided in probation or at their seal: half carry RTP.
    for f in 0..6u8 {
        let client = ([172, 16, 0, f + 1], 20_000 + u16::from(f));
        let peer = ([198, 51, 100, 7], 443);
        let mut ts = rng.gen_range(0..1_500_000);
        for seq in 0..rng.gen_range(5..15u16) {
            let mut payload = vec![0u8; rng.gen_range(80..900)];
            if f.is_multiple_of(2) {
                RtpHeader::basic(102, seq, u32::from(seq / 3) * 3000, 9, seq % 3 == 2)
                    .emit(&mut payload);
            }
            assert!(ts < SHORT_FLOWS_END_US);
            timed.push((
                ts,
                record(LinkType::Ethernet, ts, udp4_frame(peer, client, &payload)),
            ));
            ts += rng.gen_range(20_000..90_000);
        }
    }
    // IPv6 flows, past probation, as raw IP records.
    for host in 1..=2u8 {
        for _ in 0..24 {
            let ts = rng.gen_range(0..SHORT_FLOWS_END_US - 500_000);
            let packet = udp6_packet(host, rng.gen_range(40..600));
            timed.push((ts, record(LinkType::RawIp, ts, packet)));
        }
    }
    // Records no UDP monitor ingests, over the whole capture.
    for n in 0..24 {
        let ts = rng.gen_range(0..i64::from(CALL_SECS) * 1_000_000);
        let host = [192, 168, 1, n + 1];
        let frame = match n % 4 {
            0 => ip4_frame(host, [151, 101, 1, 69], 6, 400),
            1 => {
                let mut frame = vec![0u8; 14 + 46];
                ethernet(EtherType::Arp).emit(&mut frame);
                frame
            }
            2 => {
                let mut frame = ip4_frame(host, server.0, 17, 1480);
                frame[14 + 6] = 0x20; // more-fragments
                frame
            }
            _ => ip4_frame(host, server.0, 17, 64)[..14 + 9].to_vec(),
        };
        timed.push((ts, record(LinkType::Ethernet, ts, frame)));
    }
    timed.sort_by_key(|(ts, _)| *ts);
    let mut records: Vec<SourcePacket> = timed.into_iter().map(|(_, pkt)| pkt).collect();
    // A pre-parsed packet stamped before the epoch, and a record whose
    // clock steps back, mid-stream.
    let mid = records.len() / 2;
    records.insert(
        mid,
        SourcePacket::Parsed {
            flow: calls[0],
            packet: TracePacket {
                ts: Timestamp::from_micros(-5),
                size: 1_100,
                rtp: None,
                truth_media: None,
            },
        },
    );
    let mut arp = vec![0u8; 14 + 46];
    ethernet(EtherType::Arp).emit(&mut arp);
    records.insert(mid + 1, record(LinkType::Ethernet, 200_000, arp));
    Corpus {
        records,
        truth,
        calls,
        calls_end_us,
    }
}

/// A five-tree frame-rate forest over IP/UDP features, fitted on a seeded
/// in-lab corpus.
fn small_forest() -> RandomForest {
    let traces = inlab_corpus(
        VCA,
        &CorpusConfig {
            n_calls: 3,
            min_secs: 10,
            max_secs: 10,
            seed: 5,
        },
    );
    let set = build_samples(&traces, &PipelineOpts::paper(VCA));
    let mut data = Dataset::new(set.ipudp_names.clone());
    for s in &set.samples {
        data.push(&s.ipudp_features, s.truth.fps);
    }
    let params = RandomForestParams {
        n_trees: 5,
        min_samples_leaf: 8,
        seed: 5,
        ..Default::default()
    };
    RandomForest::fit(&data, Task::Regression, &params)
}

/// The corpus as a closed-loop source.
struct Feed(std::vec::IntoIter<SourcePacket>);

impl PacketSource for Feed {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        Ok(self.0.next())
    }
}

/// One event stream, per flow, in each flow's order; the parse-drop
/// summaries under the empty key, in stream order.
type Stream = BTreeMap<String, Vec<String>>;

fn observe(stream: &mut Stream, event: &QoeEvent) {
    assert!(
        !matches!(event, QoeEvent::Dropped { .. }),
        "events were shed"
    );
    let key = event.flow().map(|f| f.to_wire()).unwrap_or_default();
    stream.entry(key).or_default().push(event.to_json_line());
}

/// Feeds one packet through the monitor's front doors; Ethernet records
/// alternate between the frame and the pcap-record door.
fn ingest(monitor: &mut Monitor, n: usize, pkt: &SourcePacket) {
    match pkt {
        SourcePacket::Record {
            link: LinkType::RawIp,
            record,
        } => monitor.ingest_ip(record.ts, &record.data),
        SourcePacket::Record { link, record } if n.is_multiple_of(2) => {
            assert_eq!(*link, LinkType::Ethernet);
            monitor.ingest_frame(record.ts, &record.data);
        }
        SourcePacket::Record { link, record } => monitor.ingest_pcap_record(*link, record),
        SourcePacket::Parsed { flow, packet } => monitor.ingest_packet(*flow, *packet),
    }
}

fn front_doors(builder: MonitorBuilder, records: &[SourcePacket], drain_every: usize) -> Stream {
    let mut stream = Stream::new();
    let mut monitor = builder.build();
    for (n, pkt) in records.iter().enumerate() {
        ingest(&mut monitor, n, pkt);
        if n.is_multiple_of(drain_every) {
            monitor
                .drain_events()
                .for_each(|event| observe(&mut stream, &event));
        }
    }
    monitor
        .finish()
        .iter()
        .for_each(|event| observe(&mut stream, event));
    stream
}

fn runner(builder: MonitorBuilder, source: impl PacketSource + Send + 'static) -> Stream {
    let seen = Arc::new(Mutex::new(Stream::new()));
    let sink = Arc::clone(&seen);
    let report = MonitorRunner::new(builder)
        .source(source)
        .sink(CallbackSink::new(move |event| {
            observe(&mut sink.lock().expect("sink state"), event);
        }))
        .run();
    assert!(report.sources.iter().all(|s| s.error.is_none()));
    let stream = std::mem::take(&mut *seen.lock().expect("sink state"));
    stream
}

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

fn digest(stream: &Stream) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325;
    for (flow, lines) in stream {
        state = fnv1a(state, flow.as_bytes());
        for line in lines {
            state = fnv1a(state, b"\n");
            state = fnv1a(state, line.as_bytes());
        }
        state = fnv1a(state, b"\n\n");
    }
    state
}

/// Mean absolute frame-rate error of the calls' final windows against
/// the simulator's truth; `None` when no window carries a frame rate.
fn fps_mae(corpus: &Corpus, events: &[QoeEvent]) -> Option<f64> {
    let (mut err, mut n) = (0.0, 0u32);
    for event in events {
        let Some(truth) = event.flow().and_then(|f| corpus.truth.get(&f)) else {
            continue;
        };
        for report in event.final_reports() {
            if let (Some(fps), Some(true_fps)) =
                (report_fps(report), truth.get(report.window as usize))
            {
                err += (fps - true_fps).abs();
                n += 1;
            }
        }
    }
    (n > 0).then(|| err / f64::from(n))
}

#[test]
fn every_drive_publishes_the_committed_stream() {
    let corpus = corpus();
    // Each worker owns a call that outlives every other flow by more
    // than the idle timeout, so idle seals do not depend on the worker.
    let owners: Vec<u64> = corpus.calls.iter().map(|f| f.hash64() % 2).collect();
    assert!(
        owners.contains(&0) && owners.contains(&1),
        "calls on workers {owners:?}"
    );
    assert!(
        corpus
            .calls_end_us
            .iter()
            .all(|&end| end > SHORT_FLOWS_END_US + IDLE_TIMEOUT_S * 1_000_000),
        "calls end at {:?} us",
        corpus.calls_end_us
    );
    let forest = small_forest();
    let mut failures = Vec::new();
    for (method, expected_digest, expected_mae) in EXPECTED {
        let builder = || {
            let b = MonitorBuilder::new(VCA)
                .method(method)
                .idle_timeout(Timestamp::from_secs(IDLE_TIMEOUT_S));
            let ml = matches!(
                method,
                EstimationMethod::AutoMl | EstimationMethod::Fixed(Method::IpUdpMl | Method::RtpMl)
            );
            if ml {
                b.model(forest.clone())
            } else {
                b
            }
        };
        let records = || Feed(corpus.records.clone().into_iter());
        let inline = front_doors(builder(), &corpus.records, 1);
        let drives = [
            ("inline runner", runner(builder(), records())),
            (
                "threads(2)",
                front_doors(builder().threads(2), &corpus.records, 64),
            ),
            (
                "paced threads(2) runner",
                runner(builder().threads(2), Paced::with_speed(records(), 1_000.0)),
            ),
        ];
        for (name, stream) in &drives {
            assert_eq!(
                stream.keys().collect::<Vec<_>>(),
                inline.keys().collect::<Vec<_>>(),
                "{method:?} {name}: flows"
            );
            for (flow, lines) in &inline {
                assert_eq!(&stream[flow], lines, "{method:?} {name}: flow {flow:?}");
            }
        }
        let idle = inline
            .values()
            .flatten()
            .filter(|l| l.contains(&format!("\"{}\"", EvictReason::Idle.tag())))
            .count();
        assert!(idle > 0, "{method:?}: no idle seal");
        // Three calls, six short flows, two IPv6 flows, the drop summaries.
        assert_eq!(inline.len(), 12, "{method:?}: flows");
        assert!(inline.contains_key(""), "{method:?}: no drop summary");
        let events: Vec<QoeEvent> = {
            let mut monitor = builder().build();
            for (n, pkt) in corpus.records.iter().enumerate() {
                ingest(&mut monitor, n, pkt);
            }
            monitor.finish()
        };
        let got = (digest(&inline), fps_mae(&corpus, &events));
        if got != (expected_digest, expected_mae) {
            failures.push(format!(
                "{method:?}: digest {:#x}, fps_mae {:?}",
                got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
