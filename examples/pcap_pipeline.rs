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
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::{
    ChannelSink, EstimationMethod, Method, MonitorBuilder, MonitorRunner, PcapFileSource, QoeEvent,
};
use vcaml_suite::vcasim::{render_pcap, Session, SessionConfig, VcaProfile};

fn main() {
    // 1. Simulate a call and render it as a classic pcap with full
    //    Ethernet/IPv4/UDP framing.
    let session = Session::new(SessionConfig {
        profile: VcaProfile::lab(VcaKind::Webex),
        schedule: synth_ndt_schedule(7, 20),
        duration_secs: 20,
        seed: 7,
        link: LinkConfig::default(),
    })
    .run();
    let captured = session.to_captured();
    let mut pcap_bytes = render_pcap(&captured).expect("render capture");

    // 2. Append a deliberately truncated record by hand: real captures
    //    contain garbage, and the monitor must classify it rather than
    //    fall over. A record is a 16-byte header (seconds, microseconds,
    //    captured and original length; little-endian like the file
    //    header) followed by the captured bytes.
    let runt = [0x02, 0x00, 0x00];
    for field in [21, 0, runt.len() as u32, runt.len() as u32] {
        pcap_bytes.extend_from_slice(&field.to_le_bytes());
    }
    pcap_bytes.extend_from_slice(&runt);
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
