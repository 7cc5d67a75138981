//! Quickstart: simulate one Teams call, replay its capture bytes
//! through a spawned `MonitorRunner`, and compare the per-second QoE
//! events against ground truth — the paper's core loop through the
//! public I/O layer (source → monitor → event bus) with the run
//! supervised in the background and observed through a `MonitorHandle`.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example fails fast: an IO error here has no caller to report to"
)]

use std::io::Cursor;
use vcaml_suite::netem::{synth_ndt_schedule, LinkConfig};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::{
    ChannelSink, EstimationMethod, Method, MonitorBuilder, MonitorRunner, PcapFileSource,
};
use vcaml_suite::vcasim::{render_pcap, Session, SessionConfig, VcaProfile};

fn main() {
    // 1. A 30-second Teams call over NDT-like emulated network conditions,
    //    rendered as the pcap bytes a tap would hand us.
    let session = Session::new(SessionConfig {
        profile: VcaProfile::lab(VcaKind::Teams),
        schedule: synth_ndt_schedule(42, 30),
        duration_secs: 30,
        seed: 42,
        link: LinkConfig::default(),
    })
    .run();
    let captured = session.to_captured();
    println!("captured {} packets over 30 s", captured.len());
    let capture = render_pcap(&captured).expect("render capture");

    // 2. The whole pipeline behind one typed I/O layer: the capture is a
    //    `PcapFileSource`, the monitor parses each Ethernet/IP/UDP
    //    record and does packet-size media
    //    classification, Algorithm-1 frame reconstruction, and per-second
    //    QoE estimation (no application headers consumed), and a
    //    bounded `ChannelSink` subscribes to the typed events (shared
    //    `Arc`s — fan-out never copies). `threads(2)` runs the
    //    flow engines on shard workers behind bounded channels — on a
    //    one-call feed it only demonstrates the knob, but the same
    //    builder line scales a mixed tap across cores (see the
    //    operator_monitor example, which also fans ingest across
    //    multiple sources).
    let (subscriber, rx) = ChannelSink::bounded(1 << 16);
    let running = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2),
    )
    .source(PcapFileSource::new(Cursor::new(capture)).expect("pcap header"))
    .sink(subscriber)
    .spawn();
    // The run is supervised in the background; the handle observes it
    // live (and could force_flush, evict flows, or stop it early).
    let handle = running.handle();
    let report = running.join();
    println!(
        "runner: {} packets in, {} events out, {} flows live at the end",
        report.stats.packets,
        report.events,
        handle.stats_snapshot().flows_live
    );

    // 3. Per-second estimates vs ground truth, straight off the events.
    println!("\n  t   est FPS  true FPS  est kbps  true kbps");
    let mut abs_err = 0.0;
    let mut n = 0usize;
    for event in rx.try_iter() {
        for r in event.final_reports() {
            let e = r.estimate.expect("heuristic reports carry estimates");
            let Some(truth) = session.truth.get(r.window as usize) else {
                continue;
            };
            abs_err += (e.fps - truth.fps).abs();
            n += 1;
            println!(
                "{:>3}   {:>7.1}  {:>8.1}  {:>8.0}  {:>9.0}",
                r.window, e.fps, truth.fps, e.bitrate_kbps, truth.bitrate_kbps
            );
        }
    }
    println!("\nframe rate MAE: {:.2} FPS", abs_err / n.max(1) as f64);
}
