//! Wire-format round trip: export a simulated call as a standard libpcap
//! file (openable in Wireshark/tcpdump), then read it back through a
//! `PcapFileSource` driving a `MonitorRunner` — demonstrating that the
//! estimator consumes nothing beyond what a packet capture contains, and
//! that malformed records are classified instead of crashing the monitor.
//!
//! ```sh
//! cargo run --release --example pcap_pipeline
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example fails fast: an IO error here has no caller to report to"
)]

use vcaml_suite::netem::{synth_ndt_schedule, LinkConfig};
use vcaml_suite::netpkt::{
    EtherType, EthernetRepr, Ipv4Repr, LinkType, MacAddr, PcapWriter, Timestamp, UdpRepr,
};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::{
    ChannelSink, EstimationMethod, Method, MonitorBuilder, MonitorRunner, PcapFileSource, QoeEvent,
};
use vcaml_suite::vcasim::{Session, SessionConfig, VcaProfile};

fn main() {
    // 1. Simulate a call and materialize wire bytes.
    let profile = VcaProfile::lab(VcaKind::Webex);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(7, 20),
        duration_secs: 20,
        seed: 7,
        link: LinkConfig::default(),
    })
    .run();
    let captured = session.to_captured();

    // 2. Write a classic pcap with full Ethernet/IPv4/UDP framing.
    let mut writer = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("pcap header");
    let eth = EthernetRepr {
        src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        ethertype: EtherType::Ipv4,
    };
    for cap in &captured {
        let payload = &cap.datagram.payload;
        let mut frame = vec![0u8; 14 + 20 + 8 + payload.len()];
        eth.emit(&mut frame);
        Ipv4Repr {
            src: [203, 0, 113, 10],
            dst: [192, 168, 1, 100],
            protocol: vcaml_suite::netpkt::IP_PROTO_UDP,
            payload_len: 8 + payload.len(),
            ttl: 58,
            ident: 0,
        }
        .emit(&mut frame[14..]);
        frame[42..].copy_from_slice(payload);
        UdpRepr {
            src_port: cap.datagram.src_port,
            dst_port: cap.datagram.dst_port,
        }
        .emit_v4(
            &mut frame[34..],
            payload.len(),
            [203, 0, 113, 10],
            [192, 168, 1, 100],
        );
        writer.write_packet(cap.ts, &frame).expect("write record");
    }
    // A deliberately truncated record: real captures contain garbage, and
    // the monitor must classify it rather than fall over.
    writer
        .write_packet(Timestamp::from_secs(21), &[0x02, 0x00, 0x00])
        .expect("write runt record");
    let pcap_bytes = writer.finish().expect("flush");
    std::fs::write("webex_call.pcap", &pcap_bytes).expect("write file");
    println!(
        "wrote webex_call.pcap: {} packets, {} bytes",
        captured.len() + 1,
        pcap_bytes.len()
    );

    // 3. Read it back through the I/O layer: a `PcapFileSource` yields
    //    the raw records, the monitor does the layered eth→ip→udp parse
    //    and the RTP parse-attempt, and a bounded channel subscriber
    //    receives the typed events (shared `Arc`s — no event is ever
    //    deep-copied on its way out) — the exact pipeline a live tap
    //    runs. `spawn()` supervises the run on a background thread.
    let (subscriber, rx) = ChannelSink::bounded(1 << 16);
    let running = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Webex).method(EstimationMethod::Fixed(Method::IpUdpHeuristic)),
    )
    .source(PcapFileSource::open("webex_call.pcap").expect("reopen capture"))
    .sink(subscriber)
    .spawn();
    let report = running.join();
    println!(
        "re-parsed {} packets ({} classified drops)",
        report.stats.packets, report.stats.parse_drops
    );

    // 4. Per-window QoE straight off the re-parsed capture.
    println!("\n  t   FPS  kbps");
    for event in rx.try_iter() {
        if let QoeEvent::ParseDrop { ts, reason } = &*event {
            println!(
                "  (dropped record at t={}s: {:?})",
                ts.as_secs_f64(),
                reason
            );
            continue;
        }
        for r in event.final_reports() {
            let e = r.estimate.expect("heuristic reports carry estimates");
            println!("{:>3}  {:>4.0}  {:>5.0}", r.window, e.fps, e.bitrate_kbps);
        }
    }
    std::fs::remove_file("webex_call.pcap").ok();
}
