//! Streaming estimation (paper §7 "system considerations"): process a
//! live packet feed one packet at a time with bounded memory, emitting a
//! QoE event at every window boundary — the deployment shape a network
//! operator actually needs, driven entirely through the `vcaml` I/O
//! layer: a `ReplaySource` feeds each spawned `MonitorRunner`, a
//! `ChannelSink` subscribes to its event stream (shared `Arc` events —
//! subscribing never copies).
//!
//! Two monitors run side by side on the same raw feed: the IP/UDP
//! Heuristic (frame reconstruction) and IP/UDP ML (incremental features +
//! a random-forest model trained offline).
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```

use std::collections::BTreeMap;
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_suite::netem::{synth_ndt_schedule, LinkConfig};
use vcaml_suite::netpkt::CapturedPacket;
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::{
    build_samples, ChannelSink, EngineConfig, EstimationMethod, Method, MonitorBuilder,
    MonitorRunner, ReplaySource, WindowReport,
};
use vcaml_suite::vcasim::{Session, SessionConfig, VcaProfile};

/// Runs one monitor over the feed and collects its finalized windows.
fn run_method(
    vca: VcaKind,
    method: Method,
    model: Option<RandomForest>,
    feed: Vec<CapturedPacket>,
) -> BTreeMap<u64, WindowReport> {
    let mut builder = MonitorBuilder::new(vca).method(EstimationMethod::Fixed(method));
    if let Some(model) = model {
        builder = builder.model(model);
    }
    // A bounded channel subscriber: the receiver could live on another
    // thread (a dashboard, a log shipper); here we drain it after the
    // run. Its capacity is the subscriber's backpressure.
    let (subscriber, rx) = ChannelSink::bounded(65_536);
    MonitorRunner::new(builder)
        .source(ReplaySource::from_captured(feed))
        .sink(subscriber)
        .spawn()
        .join();
    let mut out = BTreeMap::new();
    for event in rx.try_iter() {
        for report in event.final_reports() {
            out.insert(report.window, report.clone());
        }
    }
    out
}

fn main() {
    let vca = VcaKind::Webex;

    // Train a frame-rate model offline (once).
    println!("training model...");
    let lab = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 8,
            min_secs: 25,
            max_secs: 35,
            seed: 2,
        },
    );
    let set = build_samples(&lab, &EngineConfig::paper(vca));
    let mut train = Dataset::new(set.ipudp_names.clone());
    for s in &set.samples {
        train.push(&s.ipudp_features, s.truth.fps);
    }
    let model = RandomForest::fit(&train, Task::Regression, &RandomForestParams::default());

    // "Live" feed: a fresh call, consumed packet by packet from raw
    // captured datagrams.
    let profile = VcaProfile::lab(vca);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(77, 25),
        duration_secs: 25,
        seed: 77,
        link: LinkConfig::default(),
    })
    .run();
    let captured = session.to_captured();

    let heur_windows = run_method(vca, Method::IpUdpHeuristic, None, captured.clone());
    let ml_windows = run_method(vca, Method::IpUdpMl, Some(model), captured);

    println!("\n  t   heuristic FPS  model FPS  true FPS  kbps");
    for (w, h) in &heur_windows {
        let est = h.estimate.expect("heuristic reports carry estimates");
        let model_fps = ml_windows
            .get(w)
            .and_then(|m| m.model_fps)
            .unwrap_or(f64::NAN);
        let truth = session.truth.get(*w as usize).map_or(f64::NAN, |t| t.fps);
        println!(
            "{:>3}   {:>13.1}  {:>9.1}  {:>8.1}  {:>5.0}",
            w, est.fps, model_fps, truth, est.bitrate_kbps,
        );
    }
    println!(
        "\nstate is O(window) per flow: no trace is ever buffered — the same \
         monitor demuxes a whole access network's flows by 5-tuple."
    );
}
