//! Facade/engine parity: a `vcaml::api::Monitor` must reproduce, window
//! for window, what a directly-driven `QoeEstimator` produces for the
//! same packets — for all four methods, on realistic simulated traffic,
//! through both the pre-parsed and the raw-frame ingestion paths — and
//! must classify the same bytes the same way at every byte front door.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test target: panicking is the idiomatic failure mode"
)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vcaml_suite::datasets::{inlab_corpus, to_core_trace, CorpusConfig};
use vcaml_suite::netpkt::pcap::PcapRecord;
use vcaml_suite::netpkt::{
    EtherType, EthernetRepr, FlowKey, Ipv4Repr, Ipv6Repr, LinkType, MacAddr, PcapReader,
    PcapWriter, Timestamp, UdpRepr, IP_PROTO_UDP,
};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::api::build_engine;
use vcaml_suite::vcaml::{
    CallbackSink, EngineConfig, EstimationMethod, Method, Monitor, MonitorBuilder, MonitorRunner,
    PcapFileSource, QoeEvent, Trace, WindowReport,
};
use vcaml_suite::vcasim::{render_pcap, Session, SessionConfig, VcaProfile};

fn corpus(vca: VcaKind, seed: u64, n: usize) -> Vec<Trace> {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: n,
            min_secs: 15,
            max_secs: 25,
            seed,
        },
    )
}

fn flow_key() -> FlowKey {
    FlowKey::canonical(
        "203.0.113.1".parse().unwrap(),
        3478,
        "10.0.0.1".parse().unwrap(),
        50_000,
        17,
    )
    .0
}

/// Every finalized window a finished monitor produced, by index.
fn monitor_windows(events: Vec<QoeEvent>) -> BTreeMap<u64, WindowReport> {
    let mut out = BTreeMap::new();
    for event in events {
        for report in event.final_reports() {
            assert!(
                out.insert(report.window, report.clone()).is_none(),
                "duplicate final window"
            );
        }
    }
    out
}

fn assert_reports_equal(got: &BTreeMap<u64, WindowReport>, want: &[WindowReport], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: window count");
    for w in want {
        let g = got.get(&w.window).unwrap_or_else(|| {
            panic!("{ctx}: missing window {}", w.window);
        });
        assert_eq!(g.method, w.method, "{ctx}: window {}", w.window);
        assert_eq!(g.estimate, w.estimate, "{ctx}: window {}", w.window);
        assert_eq!(g.features, w.features, "{ctx}: window {}", w.window);
        assert_eq!(
            g.video_packets, w.video_packets,
            "{ctx}: window {}",
            w.window
        );
    }
}

/// The facade's event stream must equal a direct engine drive for every
/// method — same windows, same estimates, same feature vectors.
#[test]
fn monitor_matches_direct_engine_for_all_methods() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 23, 2) {
            for method in Method::ALL {
                let mut engine = build_engine(method, config, trace.payload_map, None);
                let mut want = Vec::new();
                for p in &trace.packets {
                    engine.push_into(p, &mut want);
                }
                engine.finish_into(&mut want);

                let mut monitor = MonitorBuilder::new(vca)
                    .method(EstimationMethod::Fixed(method))
                    .payload_map(trace.payload_map)
                    .build();
                let flow = flow_key();
                for p in &trace.packets {
                    monitor.ingest_packet(flow, *p);
                }
                let got = monitor_windows(monitor.finish());
                assert_reports_equal(&got, &want, &format!("{vca} {method:?}"));
            }
        }
    }
}

/// The raw-frame path (RTP parse-attempt included) must agree with the
/// pre-parsed path: ingesting a session's rendered Ethernet frames yields
/// the same windows as replaying its decoded trace through an engine.
#[test]
fn raw_ingestion_matches_preparsed_trace() {
    let vca = VcaKind::Teams;
    let profile = VcaProfile::lab(vca);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: vcaml_suite::netem::synth_ndt_schedule(5, 20),
        duration_secs: 20,
        seed: 5,
        link: vcaml_suite::netem::LinkConfig::default(),
    })
    .run();
    let trace = to_core_trace(&session, profile.payload_map);
    let image = render_pcap(&session.to_captured()).unwrap();
    let mut reader = PcapReader::new(&image[..]).unwrap();
    let mut frames = Vec::new();
    while let Some(record) = reader.next_record().unwrap() {
        frames.push(record);
    }
    let config = EngineConfig::paper(vca);

    for method in Method::ALL {
        let mut engine = build_engine(method, config, trace.payload_map, None);
        let mut want = Vec::new();
        for p in &trace.packets {
            engine.push_into(p, &mut want);
        }
        engine.finish_into(&mut want);

        let mut monitor = MonitorBuilder::new(vca)
            .method(EstimationMethod::Fixed(method))
            .payload_map(trace.payload_map)
            .build();
        for frame in &frames {
            monitor.ingest_frame(frame.ts, &frame.data);
        }
        assert_eq!(monitor.stats().parse_drops, 0, "{method:?}: clean feed");
        let got = monitor_windows(monitor.finish());
        assert_reports_equal(&got, &want, &format!("raw {method:?}"));
    }
}

/// Auto selection must not change the numbers, only the method: a flow
/// resolved to its RTP variant reports the same windows as a fixed RTP
/// monitor fed the same packets.
#[test]
fn auto_selection_preserves_window_exactness() {
    let vca = VcaKind::Meet;
    let trace = &corpus(vca, 31, 1)[0];
    let run = |method: EstimationMethod| {
        let mut monitor = MonitorBuilder::new(vca)
            .method(method)
            .payload_map(trace.payload_map)
            .build();
        let flow = flow_key();
        for p in &trace.packets {
            monitor.ingest_packet(flow, *p);
        }
        monitor_windows(monitor.finish())
    };
    let auto = run(EstimationMethod::AutoHeuristic);
    let resolved_method = auto.values().next().expect("windows emitted").method;
    let fixed = run(EstimationMethod::Fixed(resolved_method));
    assert_eq!(auto.len(), fixed.len());
    for (w, r) in &auto {
        assert_eq!(r.estimate, fixed[w].estimate, "window {w}");
    }
}

/// What one front door made of one packet: the flow it opened, or the
/// tag of the drop it reported.
type Outcome = Result<FlowKey, &'static str>;

fn outcome(event: &QoeEvent) -> Option<(Timestamp, Outcome)> {
    match event {
        QoeEvent::FlowOpened { flow, ts } => Some((*ts, Ok(*flow))),
        QoeEvent::ParseDrop { ts, reason } => Some((*ts, Err(reason.tag()))),
        QoeEvent::WindowReport { .. } | QoeEvent::FlowEvicted { .. } | QoeEvent::Dropped { .. } => {
            None
        }
    }
}

/// One front door, one classification: the same payload must open the
/// same flow — or be dropped under the same reason tag — whether it
/// arrives as raw IP bytes, a raw-IP pcap record, an Ethernet frame, an
/// Ethernet pcap record, or through a runner's ingest port on a
/// threaded monitor.
#[test]
fn every_front_door_classifies_alike() {
    const V4: ([u8; 4], [u8; 4]) = ([10, 0, 0, 1], [10, 0, 0, 2]);
    let ipv4 = |protocol: u8, payload_len: usize| {
        let mut ip = vec![0x16u8; 20 + payload_len];
        Ipv4Repr {
            src: V4.0,
            dst: V4.1,
            protocol,
            payload_len,
            ttl: 64,
            ident: 7,
        }
        .emit(&mut ip);
        ip
    };
    let mut v4_udp = ipv4(IP_PROTO_UDP, 8 + 40);
    UdpRepr {
        src_port: 40_000,
        dst_port: 50_000,
    }
    .emit_v4(&mut v4_udp[20..], 40, V4.0, V4.1);
    let mut v6_udp = vec![0x16u8; 40 + 8 + 40];
    Ipv6Repr {
        src: [0x20, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        dst: [0x20, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        next_header: IP_PROTO_UDP,
        payload_len: 8 + 40,
        hop_limit: 64,
    }
    .emit(&mut v6_udp);
    v6_udp[40..42].copy_from_slice(&40_000u16.to_be_bytes());
    v6_udp[42..44].copy_from_slice(&50_000u16.to_be_bytes());
    v6_udp[44..46].copy_from_slice(&48u16.to_be_bytes());
    v6_udp[46..48].copy_from_slice(&[0, 0]);

    // (name, IP-layer bytes, ethertype of its frame, expected outcome:
    // `None` = a flow opens, `Some(tag)` = dropped under that tag).
    let table: Vec<(&str, Vec<u8>, EtherType, Option<&str>)> = vec![
        ("ipv4/udp", v4_udp, EtherType::Ipv4, None),
        ("ipv6/udp", v6_udp, EtherType::Ipv6, None),
        (
            "version nibble 7",
            vec![0x70; 40],
            EtherType::Ipv4,
            Some("malformed"),
        ),
        ("empty", Vec::new(), EtherType::Ipv4, Some("truncated")),
        (
            "truncated udp",
            ipv4(IP_PROTO_UDP, 4),
            EtherType::Ipv4,
            Some("truncated"),
        ),
        ("tcp", ipv4(6, 20), EtherType::Ipv4, Some("not_udp")),
    ];
    let framed = |ip: &[u8], ethertype: EtherType| {
        let mut frame = vec![0u8; 14 + ip.len()];
        EthernetRepr {
            src: MacAddr([2, 0, 0, 0, 0, 1]),
            dst: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype,
        }
        .emit(&mut frame);
        frame[14..].copy_from_slice(ip);
        frame
    };
    let record = |ts: Timestamp, data: &[u8]| PcapRecord {
        ts,
        orig_len: data.len() as u32,
        data: data.to_vec().into(),
    };
    // One packet through one inline door.
    let inline = |door: &dyn Fn(&mut Monitor)| -> Outcome {
        let mut monitor = MonitorBuilder::new(VcaKind::Teams).build();
        door(&mut monitor);
        let first = monitor
            .drain_events()
            .next()
            .expect("one packet, one event");
        outcome(&first).expect("open or drop").1
    };
    // Every packet of the table, as records of one capture, through a
    // runner's ingest port; outcomes come back keyed by timestamp.
    let ported = |link: LinkType| -> BTreeMap<Timestamp, Outcome> {
        let mut writer = PcapWriter::new(Vec::new(), link).expect("pcap header");
        for (i, (_, ip, ethertype, _)) in table.iter().enumerate() {
            let ts = Timestamp::from_millis(i as i64 + 1);
            let bytes = match link {
                LinkType::Ethernet => framed(ip, *ethertype),
                LinkType::RawIp | LinkType::Other(_) => ip.clone(),
            };
            writer.write_packet(ts, &bytes).expect("write record");
        }
        let image = writer.finish().expect("flush");
        let seen = Arc::new(Mutex::new(BTreeMap::new()));
        let sink = Arc::clone(&seen);
        let report = MonitorRunner::new(MonitorBuilder::new(VcaKind::Teams).threads(2))
            .source(PcapFileSource::new(std::io::Cursor::new(image)).expect("pcap header"))
            .sink(CallbackSink::new(move |event| {
                if let Some((ts, outcome)) = outcome(event) {
                    sink.lock().unwrap().insert(ts, outcome);
                }
            }))
            .run();
        assert_eq!(report.sources[0].packets, table.len() as u64);
        let seen = seen.lock().unwrap().clone();
        seen
    };
    let ported_ip = ported(LinkType::RawIp);
    let ported_eth = ported(LinkType::Ethernet);

    for (i, (name, ip, ethertype, expected)) in table.iter().enumerate() {
        let ts = Timestamp::from_millis(i as i64 + 1);
        let frame = framed(ip, *ethertype);
        let doors: [(&str, Outcome); 6] = [
            ("ingest_ip", inline(&|m| m.ingest_ip(ts, ip))),
            (
                "ingest_pcap_record(RawIp)",
                inline(&|m| m.ingest_pcap_record(LinkType::RawIp, &record(ts, ip))),
            ),
            ("ingest_frame", inline(&|m| m.ingest_frame(ts, &frame))),
            (
                "ingest_pcap_record(Ethernet)",
                inline(&|m| m.ingest_pcap_record(LinkType::Ethernet, &record(ts, &frame))),
            ),
            ("ingest port, raw-ip capture", ported_ip[&ts]),
            ("ingest port, ethernet capture", ported_eth[&ts]),
        ];
        let (_, reference) = doors[0];
        assert_eq!(reference.err(), *expected, "{name}: classification");
        for (door, got) in doors {
            assert_eq!(got, reference, "{name} through {door}");
        }
    }
}
