//! The paper's motivating scenario: a network operator monitoring VCA QoE
//! for many households *without* RTP access.
//!
//! Trains an IP/UDP-ML model on lab data once, then watches a fleet of
//! real-world calls through the crate's I/O layer: the fleet is split
//! across **two taps** (two `ReplaySource`s — say, two aggregation
//! links), a spawned `MonitorRunner` ingests both on their own threads
//! into one sharded monitor, and the merged event stream fans out on
//! the event bus — an unfiltered rollup consumer plus a min-severity
//! subscription that sees *only* operationally interesting events
//! (degraded windows below the live alert bar, shed markers) — while a
//! `MonitorHandle` watches the run live: the "diagnose and react to
//! QoE degradation" loop of §1.
//!
//! ```sh
//! cargo run --release --example operator_monitor
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "example code: failing fast keeps the walkthrough readable"
)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, TcpStream};
use std::sync::{Arc, Mutex};
use vcaml_suite::datasets::{inlab_corpus, realworld_corpus, CorpusConfig};
use vcaml_suite::mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::daemon::{BoundControl, ControlEndpoint, Daemon, DaemonConfig};
use vcaml_suite::vcaml::{
    build_samples, CallbackSink, EngineConfig, EstimationMethod, EventFilter, Method,
    MonitorBuilder, MonitorRunner, ReplaySource, Severity, TracePacket,
};

fn main() {
    let vca = VcaKind::Meet;

    // --- Offline: train on the lab corpus (the operator's one-time cost).
    println!("training IP/UDP ML frame-rate model on lab data...");
    let lab = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 12,
            min_secs: 30,
            max_secs: 45,
            seed: 1,
        },
    );
    let lab_set = build_samples(&lab, &EngineConfig::paper(vca));
    let mut train = Dataset::new(lab_set.ipudp_names.clone());
    for s in &lab_set.samples {
        train.push(&s.ipudp_features, s.truth.fps);
    }
    let model = RandomForest::fit(&train, Task::Regression, &RandomForestParams::default());
    println!(
        "model: {} trees on {} windows",
        model.n_trees(),
        train.len()
    );

    // --- Online: a fleet of concurrent calls, one flow per household,
    // demuxed by the canonical UDP 5-tuple. Each household hangs off one
    // of two taps; a tap delivers its packets in arrival order.
    let profiles = realworld_corpus(
        vca,
        &CorpusConfig {
            n_calls: 15,
            min_secs: 15,
            max_secs: 25,
            seed: 7,
        },
    );
    let mut taps: Vec<Vec<(FlowKey, TracePacket)>> = vec![Vec::new(), Vec::new()];
    let mut key_of_call = Vec::new();
    for (call, trace) in profiles.iter().enumerate() {
        let client = IpAddr::V4(Ipv4Addr::new(
            10,
            0,
            (call / 250) as u8,
            (call % 250) as u8 + 1,
        ));
        let relay = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 10));
        let (key, _) = FlowKey::canonical(relay, 3478, client, 50_000 + call as u16, 17);
        key_of_call.push(key);
        taps[call % 2].extend(trace.packets.iter().map(|p| (key, *p)));
    }
    for tap in &mut taps {
        tap.sort_by_key(|(_, p)| p.ts);
    }

    // Four shard workers split the fleet's engines; two ingest threads
    // (one per tap source) split the parse+hash dispatch that used to be
    // the serial section. The bounded event queue applies backpressure
    // instead of growing without limit if this consumer falls behind.
    //
    // Two bus subscriptions share every event allocation: an unfiltered
    // rollup of inferred frame rates, and a min-severity subscription
    // that only ever sees windows below the live alert bar (classified
    // once on the drain thread — the filtered subscriber pays nothing
    // for healthy traffic).
    let inferred: Arc<Mutex<HashMap<FlowKey, Vec<f64>>>> = Arc::default();
    let collected = Arc::clone(&inferred);
    let degraded_windows = Arc::new(Mutex::new(0u64));
    let degraded_counter = Arc::clone(&degraded_windows);
    let mut runner = MonitorRunner::new(
        MonitorBuilder::new(vca)
            .method(EstimationMethod::Fixed(Method::IpUdpMl))
            .model(model.clone())
            .threads(4)
            .queue_capacity(16_384)
            .idle_timeout(Timestamp::from_secs(30)),
    )
    .sink(CallbackSink::new(move |event| {
        let Some(flow) = event.flow() else { return };
        for report in event.final_reports() {
            if let Some(fps) = report.model_fps {
                collected.lock().unwrap().entry(flow).or_default().push(fps);
            }
        }
    }))
    .subscribe(
        EventFilter::all().min_severity(Severity::Warning),
        CallbackSink::new(move |_| *degraded_counter.lock().unwrap() += 1),
    );
    // The alert bar the severity classification uses, tunable live.
    let handle = runner.handle();
    handle.set_alert_fps(20.0);
    for tap in taps {
        runner = runner.source(ReplaySource::from_packets(tap));
    }

    // The operational surface a real deployment would expose: an
    // OpenMetrics exporter for the Prometheus scrape loop and a
    // line-protocol control socket for the on-call operator. Ephemeral
    // ports so the example never collides with a real deployment.
    let daemon = Daemon::start(
        handle.clone(),
        runner.bus_handle(),
        DaemonConfig::new()
            .metrics_addr("127.0.0.1:0")
            .control(ControlEndpoint::Tcp("127.0.0.1:0".into())),
    )
    .unwrap();

    let report = runner.spawn().join();
    let snapshot = handle.stats_snapshot();

    // Scrape the exporter exactly as Prometheus would.
    let metrics_addr = daemon.metrics_addr().unwrap();
    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    scrape.read_to_string(&mut body).unwrap();
    let families = body.lines().filter(|l| l.starts_with("# TYPE")).count();
    let packets_line = body
        .lines()
        .find(|l| l.starts_with("vcaml_packets_total "))
        .unwrap();
    println!("\nscraped http://{metrics_addr}/metrics ({families} metric families)");
    println!("  {packets_line}");

    // Drive the control socket: raise the alert bar live, then read the
    // monitor's own snapshot back over the wire.
    let Some(BoundControl::Tcp(control_addr)) = daemon.control_addr() else {
        unreachable!("daemon was configured with a TCP control endpoint");
    };
    let mut control = BufReader::new(TcpStream::connect(control_addr).unwrap());
    control
        .get_mut()
        .write_all(b"SET alert_fps 22\nSTATS\n")
        .unwrap();
    let mut reply = String::new();
    control.read_line(&mut reply).unwrap();
    println!("control SET alert_fps 22 -> {}", reply.trim_end());
    reply.clear();
    control.read_line(&mut reply).unwrap();
    println!(
        "control STATS -> {} byte snapshot (same serializer as --stats-every)",
        reply.trim_end().len()
    );
    drop(control);
    daemon.shutdown();

    println!(
        "\ndemuxed {} packets from {} taps into {} flows across 4 shard workers",
        report.stats.packets,
        report.sources.len(),
        report.stats.flows_opened
    );
    println!(
        "{} events below the {} fps alert bar reached the severity-filtered subscriber",
        degraded_windows.lock().unwrap(),
        handle.alert_fps().unwrap_or_default()
    );
    println!(
        "final snapshot: {} flows live, {} events pending, shard depths {:?}",
        snapshot.flows_live, snapshot.pending_events, snapshot.shard_depths
    );
    println!("\ncall  windows  inferred FPS (mean)  true FPS (mean)  verdict");
    let inferred = inferred.lock().unwrap();
    let mut degraded = 0;
    for (call, trace) in profiles.iter().enumerate() {
        let Some(preds) = inferred.get(&key_of_call[call]) else {
            continue;
        };
        let mean: f64 = preds.iter().sum::<f64>() / preds.len() as f64;
        let truth: f64 =
            trace.truth.iter().map(|t| t.fps).sum::<f64>() / trace.truth.len().max(1) as f64;
        let verdict = if mean < 20.0 {
            degraded += 1;
            "DEGRADED — investigate access link"
        } else {
            "ok"
        };
        println!(
            "{call:>4}  {:>7}  {:>19.1}  {:>15.1}  {verdict}",
            preds.len(),
            mean,
            truth
        );
    }
    println!("\n{degraded}/{} calls flagged as degraded", profiles.len());

    // What the model keys on — without ever reading an RTP header.
    println!("\ntop features:");
    for (name, imp) in model.top_features(5) {
        println!("  {name:<16} {:.1}%", imp * 100.0);
    }
}
