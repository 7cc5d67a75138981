//! Integration tests for the `vcaml::daemon` operational surface:
//!
//! * the control grammar is **total** — arbitrary bytes parse to a
//!   typed request or a typed error, never a panic, and a live control
//!   socket survives any garbage a client throws at it;
//! * every verb (`STATS`/`FLUSH`/`EVICT`/`SET`/`SUBSCRIBE`/`STOP`)
//!   round-trips against a live threaded monitor, with its side effect
//!   observable through the same `MonitorHandle` the daemon wraps;
//! * the OpenMetrics exporter emits a self-consistent document — every
//!   sample belongs to a `# TYPE`-annotated family, labels are
//!   well-formed, the body ends in `# EOF`, and `_total` counters are
//!   monotone across two scrapes taken mid-ingest.

use proptest::prelude::*;
use rand::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::api::ParseDropReason;
use vcaml_suite::vcaml::daemon::{
    parse_request, BoundControl, ControlEndpoint, Daemon, DaemonConfig, Request, MAX_LINE_BYTES,
};
use vcaml_suite::vcaml::{
    EstimationMethod, Method, MonitorBuilder, MonitorRunner, Paced, ReplaySource, TracePacket,
};
use vcaml_suite::vcasim::VcaProfile;

fn flow_key(n: u16) -> FlowKey {
    let client = std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, n as u8 + 1));
    let server = std::net::IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, 1));
    FlowKey::canonical(server, 3478, client, 40_000 + n, 17).0
}

/// A synthetic 30 fps video flow: two ~1 kB packets per frame.
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

fn merged_feed(flows: u16, secs: i64) -> Vec<(FlowKey, TracePacket)> {
    let mut feed = Vec::new();
    for n in 0..flows {
        feed.extend(video_feed(flow_key(n), secs));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    feed
}

fn builder() -> MonitorBuilder {
    MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .threads(2)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .expect("set read timeout");
    stream
}

fn tcp_control_addr(daemon: &Daemon) -> SocketAddr {
    match daemon.control_addr() {
        Some(BoundControl::Tcp(addr)) => *addr,
        other => panic!("expected TCP control endpoint, got {other:?}"),
    }
}

/// One request/reply exchange on an already-open control connection.
fn exchange(control: &mut BufReader<TcpStream>, line: &str) -> String {
    control
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("write control line");
    let mut reply = String::new();
    control.read_line(&mut reply).expect("read control reply");
    reply.trim_end().to_string()
}

/// One full HTTP/1.0 scrape; returns the body only.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    assert!(
        response.starts_with("HTTP/1.0 200 OK\r\n"),
        "scrape status line: {response:.60}"
    );
    assert!(
        response.contains("Content-Type: application/openmetrics-text"),
        "scrape content type missing"
    );
    let (_head, body) = response
        .split_once("\r\n\r\n")
        .expect("scrape response has a header/body split");
    body.to_string()
}

proptest! {
    // The grammar is total: any byte soup, split on newlines the way
    // the wire would, parses without panicking, and every error turns
    // into a single-line printable `ERR <code> ...` reply.
    #[test]
    fn parse_request_is_total_over_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let text = String::from_utf8_lossy(&data);
        for line in text.split('\n') {
            if let Err(err) = parse_request(line) {
                let reply = err.to_reply();
                prop_assert!(reply.starts_with("ERR "), "reply {reply:?}");
                prop_assert!(!reply.contains('\n'));
                prop_assert!(reply.chars().all(|c| !c.is_control()));
                prop_assert!(!err.code().is_empty());
            }
        }
    }

    // Valid verbs with random argument tails still never panic, and a
    // bare well-formed verb still parses.
    #[test]
    fn verb_prefixes_with_random_tails_stay_typed(
        verb in 0usize..6,
        tail in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let verbs = ["STATS", "FLUSH", "EVICT", "SET", "SUBSCRIBE", "STOP"];
        let tail = String::from_utf8_lossy(&tail).replace(['\n', '\r'], " ");
        let _ = parse_request(&format!("{} {tail}", verbs[verb]));
        prop_assert!(parse_request(verbs[0]).is_ok());
        prop_assert_eq!(parse_request("stop"), Ok(Request::Stop));
    }
}

/// A live control socket shrugs off garbage: random blobs (plus a few
/// hand-picked hostile lines) never kill the daemon — a fresh `STATS`
/// afterwards always answers `OK`.
#[test]
fn garbage_on_the_wire_never_kills_the_daemon() {
    let mut runner = MonitorRunner::new(builder());
    let handle = runner.handle();
    let bus = runner.bus_handle();
    let daemon = Daemon::start(
        handle.clone(),
        bus,
        DaemonConfig::new()
            .metrics_addr("127.0.0.1:0")
            .control(ControlEndpoint::Tcp("127.0.0.1:0".into())),
    )
    .expect("daemon binds ephemeral ports");
    // A short run that completes immediately; the daemon keeps serving
    // snapshots from the handle after the run is over.
    runner = runner.source(ReplaySource::from_packets(video_feed(flow_key(0), 2)));
    runner.spawn().join();

    let control_addr = tcp_control_addr(&daemon);
    let mut rng = StdRng::seed_from_u64(42);
    let hostile: Vec<Vec<u8>> = vec![
        b"EVICT banana\n".to_vec(),
        b"SET alert_fps NaN\n".to_vec(),
        b"SET alert_fps\n".to_vec(),
        b"SET brightness 11\n".to_vec(),
        b"SUBSCRIBE kinds=nonsense\n".to_vec(),
        b"STATS extra args\n".to_vec(),
        b"\xff\xfe\xfd\n".to_vec(),
        vec![b'A'; MAX_LINE_BYTES + 100],
    ];
    for case in 0..48 {
        let blob = if case < hostile.len() {
            hostile[case].clone()
        } else {
            let len = (rng.next_u64() % 400) as usize;
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        let mut stream = connect(control_addr);
        let _ = stream.write_all(&blob);
        let _ = stream.write_all(b"\n");
        drop(stream);

        // The daemon must still be standing.
        let mut control = BufReader::new(connect(control_addr));
        let reply = exchange(&mut control, "STATS");
        assert!(
            reply.starts_with("OK {"),
            "daemon died after blob {case}: {reply:?}"
        );
    }

    // The hostile-but-structured lines come back as the right codes.
    let mut control = BufReader::new(connect(control_addr));
    assert!(exchange(&mut control, "EVICT banana").starts_with("ERR bad_flow"));
    assert!(exchange(&mut control, "SET alert_fps nope").starts_with("ERR bad_number"));
    assert!(exchange(&mut control, "SET brightness 11").starts_with("ERR unknown_setting"));
    assert!(exchange(&mut control, "BOGOVERB").starts_with("ERR unknown_verb"));
    daemon.shutdown();
}

/// Golden round-trip: every verb against a live, real-time-paced
/// monitor, each side effect confirmed through the handle.
#[test]
fn every_verb_round_trips_against_a_live_monitor() {
    let mut runner = MonitorRunner::new(builder());
    let handle = runner.handle();
    let bus = runner.bus_handle();
    let daemon = Daemon::start(
        handle.clone(),
        bus,
        DaemonConfig::new()
            .ladder(VcaProfile::lab(VcaKind::Teams))
            .metrics_addr("127.0.0.1:0")
            .control(ControlEndpoint::Tcp("127.0.0.1:0".into())),
    )
    .expect("daemon binds ephemeral ports");
    // A long paced feed so the run is still live while we drive verbs;
    // the trailing STOP (not feed exhaustion) is what ends it.
    runner = runner.source(
        Paced::new(ReplaySource::from_packets(merged_feed(2, 120))).with_stop(handle.stop_token()),
    );
    let running = runner.spawn();

    let control_addr = tcp_control_addr(&daemon);

    // SUBSCRIBE on its own connection: it upgrades to a one-way stream.
    let mut subscriber = BufReader::new(connect(control_addr));
    let reply = exchange(&mut subscriber, "SUBSCRIBE kinds=window_report");
    assert_eq!(reply, "OK subscribed");

    let mut control = BufReader::new(connect(control_addr));

    // STATS: the reply payload is the handle's own snapshot serializer
    // (exact bytes race against the live counters, so compare shape).
    let stats = exchange(&mut control, "STATS");
    assert!(stats.starts_with("OK {"), "STATS reply: {stats:?}");
    let local = handle.stats_snapshot().to_json_line();
    for key in [
        "\"packets\"",
        "\"events_by_severity\"",
        "\"windows_by_method\"",
        "\"flows_live\"",
    ] {
        assert!(stats.contains(key), "STATS reply missing {key}: {stats:?}");
        assert!(
            local.contains(key),
            "local snapshot missing {key}: {local:?}"
        );
    }

    // SET all three alert floors, each observable through the handle.
    assert_eq!(exchange(&mut control, "SET alert_fps 24"), "OK");
    assert_eq!(handle.alert_fps(), Some(24.0));
    assert_eq!(exchange(&mut control, "SET alert_min_kbps 300"), "OK");
    assert_eq!(handle.alert_min_kbps(), Some(300.0));
    assert_eq!(
        exchange(&mut control, "SET alert_resolution_floor 360"),
        "OK"
    );
    assert_eq!(handle.alert_resolution_floor(), Some(360));

    // FLUSH forces provisional snapshots into the event stream.
    assert_eq!(exchange(&mut control, "FLUSH"), "OK");

    // EVICT seals one live flow; the eviction shows up in the stats.
    let evicted_flow = flow_key(1);
    assert_eq!(
        exchange(&mut control, &format!("EVICT {}", evicted_flow.to_wire())),
        "OK"
    );

    // The subscriber stream delivers JSON-lines window reports from the
    // live run (windows are one second, so this arrives within seconds).
    let mut event_line = String::new();
    subscriber
        .read_line(&mut event_line)
        .expect("subscriber stream delivers");
    assert!(
        event_line.starts_with('{') && event_line.contains("window_report"),
        "subscriber line: {event_line:?}"
    );

    // STOP requests a graceful stop; the paced source aborts its sleep
    // and the run drains to a clean join.
    assert_eq!(exchange(&mut control, "STOP"), "OK stopping");
    let report = running.join();
    assert!(report.stats.packets > 0, "run ingested before the stop");
    assert!(
        report.stats.flows_evicted >= 1,
        "EVICT sealed a flow: {:?}",
        report.stats
    );
    daemon.shutdown();
}

/// Two scrapes mid-ingest: both documents are well-formed (typed
/// families, well-formed labels, `# EOF` terminator) and every counter
/// family is monotone between them.
#[test]
fn metrics_scrapes_are_wellformed_and_monotone_mid_ingest() {
    let mut runner = MonitorRunner::new(builder());
    let handle = runner.handle();
    let bus = runner.bus_handle();
    let daemon = Daemon::start(
        handle.clone(),
        bus,
        DaemonConfig::new()
            .metrics_addr("127.0.0.1:0")
            .control(ControlEndpoint::Tcp("127.0.0.1:0".into())),
    )
    .expect("daemon binds ephemeral ports");
    // Three records from before the epoch lead the feed: parse drops,
    // so the per-reason family has something to split.
    let mut feed = merged_feed(4, 60);
    let (flow, early) = feed[0];
    let early = TracePacket {
        ts: Timestamp::from_micros(-1),
        ..early
    };
    feed.splice(0..0, [(flow, early); 3]);
    runner =
        runner.source(Paced::new(ReplaySource::from_packets(feed)).with_stop(handle.stop_token()));
    let running = runner.spawn();
    let metrics_addr = daemon.metrics_addr().expect("metrics exporter bound");

    std::thread::sleep(Duration::from_millis(400));
    let first = scrape(metrics_addr);
    std::thread::sleep(Duration::from_millis(700));
    let second = scrape(metrics_addr);

    handle.stop();
    running.join();
    daemon.shutdown();

    for (which, body) in [("first", &first), ("second", &second)] {
        assert_wellformed(which, body);
    }
    let (c1, c2) = (counter_samples(&first), counter_samples(&second));
    assert!(
        c2["vcaml_packets_total"] > c1["vcaml_packets_total"],
        "packets counter advanced between scrapes: {} -> {}",
        c1["vcaml_packets_total"],
        c2["vcaml_packets_total"]
    );
    for (name, v1) in &c1 {
        let v2 = c2
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} vanished from the second scrape"));
        assert!(v2 >= v1, "counter {name} went backwards: {v1} -> {v2}");
    }
    // The per-reason family always lists all five reasons, and within
    // one scrape they add up to the unlabelled total.
    for counters in [&c1, &c2] {
        let by_reason: Vec<f64> = ParseDropReason::TAGS
            .iter()
            .map(|tag| counters[&format!("vcaml_parse_drops_by_reason_total{{reason=\"{tag}\"}}")])
            .collect();
        assert_eq!(by_reason, [0.0, 0.0, 0.0, 0.0, 3.0]);
        assert_eq!(counters["vcaml_parse_drops_total"], 3.0);
    }
}

/// Structural checks over one scrape body.
fn assert_wellformed(which: &str, body: &str) {
    assert!(body.ends_with("# EOF\n"), "{which}: missing # EOF");
    let mut typed: HashMap<String, String> = HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family kind").to_string();
            assert!(
                kind == "counter" || kind == "gauge",
                "{which}: family {name} has kind {kind}"
            );
            typed.insert(name, kind);
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(value.parse::<f64>().is_ok(), "{which}: value {value:?}");
        let name = series.split('{').next().expect("sample name");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{which}: bad family name {name:?}"
        );
        assert!(typed.contains_key(name), "{which}: {name} precedes # TYPE");
        if let Some(labels) = series.strip_prefix(name) {
            if !labels.is_empty() {
                let inner = labels
                    .strip_prefix('{')
                    .and_then(|l| l.strip_suffix('}'))
                    .unwrap_or_else(|| panic!("{which}: bad label braces {series:?}"));
                for pair in inner.split(',') {
                    let (key, val) = pair
                        .split_once('=')
                        .unwrap_or_else(|| panic!("{which}: bad label pair {pair:?}"));
                    assert!(
                        !key.is_empty()
                            && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    );
                    assert!(
                        val.starts_with('"') && val.ends_with('"'),
                        "{which}: {val:?}"
                    );
                }
            }
        }
        if name.ends_with("_total") {
            assert_eq!(typed[name], "counter", "{which}: {name} must be a counter");
        }
    }
}

/// `family{labels} value` samples of every counter family, keyed by the
/// full series (name + labels).
fn counter_samples(body: &str) -> HashMap<String, f64> {
    let mut counters = std::collections::HashSet::new();
    let mut out = HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some("counter")) = (parts.next(), parts.next()) {
                counters.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            let name = series.split('{').next().unwrap_or_default();
            if counters.contains(name) {
                out.insert(series.to_string(), value.parse::<f64>().unwrap_or(f64::NAN));
            }
        }
    }
    out
}

/// The Unix-socket control endpoint round-trips and cleans up its
/// socket file on shutdown.
#[cfg(unix)]
#[test]
fn unix_socket_control_round_trips_and_cleans_up() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("vcaml-daemon-test-{}.sock", std::process::id()));
    let mut runner = MonitorRunner::new(builder());
    let handle = runner.handle();
    let bus = runner.bus_handle();
    let daemon = Daemon::start(
        handle.clone(),
        bus,
        DaemonConfig::new()
            .metrics_addr("127.0.0.1:0")
            .control(ControlEndpoint::Unix(path.clone())),
    )
    .expect("daemon binds the unix socket");
    runner = runner.source(ReplaySource::from_packets(video_feed(flow_key(0), 2)));
    runner.spawn().join();

    match daemon.control_addr() {
        Some(BoundControl::Unix(bound)) => assert_eq!(bound, &path),
        other => panic!("expected unix control endpoint, got {other:?}"),
    }
    let stream = UnixStream::connect(&path).expect("connect unix control socket");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .expect("set read timeout");
    let mut control = BufReader::new(stream);
    control
        .get_mut()
        .write_all(b"STATS\n")
        .expect("write STATS");
    let mut reply = String::new();
    control.read_line(&mut reply).expect("read STATS reply");
    assert!(reply.starts_with("OK {"), "unix STATS reply: {reply:?}");
    drop(control);

    daemon.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}
