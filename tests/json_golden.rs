//! The product's JSON documents, pinned byte for byte: the event line
//! ([`QoeEvent::to_json_line`]) for every variant and reason shape, the
//! `"type":"stats"` line ([`MonitorSnapshot::to_json_line`]) and the
//! three alert lines of [`AlertSink`].
//!
//! Every literal here also holds on the commit before the serializer
//! was rewritten to write directly, except the two in
//! [`shed_flow_is_spelled_like_the_dropped_event`] and
//! [`integers_print_exactly`]: there a shed flow in the stats line was
//! a struct dump and integers above 2^53 were rounded through `f64`.
//! The finite alert lines hold on the commit before [`AlertSink`] moved
//! onto the same writer; [`alert_bar_that_is_not_a_number_is_null`]
//! does not (`"threshold":inf` there).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::api::{EvictReason, MonitorStats, ParseDropReason, QoeEvent};
use vcaml_suite::vcaml::sink::EventSink;
use vcaml_suite::vcaml::{
    AlertSink, AlertThresholds, Method, MonitorSnapshot, QoeEstimate, WindowReport,
};
use vcaml_suite::vcasim::{LadderRung, VcaProfile};

const FLOW: &str = "10.0.0.1:5000 <-> 10.0.0.2:3478 proto 17";
const FLOW6: &str = "2001:db8::1:40000 <-> 2001:db8::2:3478 proto 17";

fn flow() -> FlowKey {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    FlowKey::canonical(IpAddr::V4(a), 5000, IpAddr::V4(b), 3478, 17).0
}

fn flow6() -> FlowKey {
    let a = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
    let b = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
    FlowKey::canonical(IpAddr::V6(a), 40000, IpAddr::V6(b), 3478, 17).0
}

fn heuristic_report(
    window: u64,
    bitrate_kbps: f64,
    fps: f64,
    frame_jitter_ms: f64,
) -> WindowReport {
    WindowReport {
        window,
        method: Method::RtpHeuristic,
        estimate: Some(QoeEstimate {
            bitrate_kbps,
            fps,
            frame_jitter_ms,
        }),
        features: None,
        model_fps: None,
        video_packets: 412,
    }
}

fn ml_report() -> WindowReport {
    WindowReport {
        window: 7,
        method: Method::IpUdpMl,
        estimate: None,
        features: Some(vec![
            96.0, 118784.5, 1237.34375, 211.25, 1180.0, 64.0, 1400.0, 31.0, 0.0104, 0.0021, 0.0098,
            0.00001, 0.25, 12.0,
        ]),
        model_fps: Some(28.75),
        video_packets: 96,
    }
}

fn stats() -> MonitorStats {
    MonitorStats {
        packets: 112_340,
        parse_drops: 17,
        parse_drops_by_reason: [2, 3, 1, 11, 0],
        flows_opened: 16,
        flows_evicted: 4,
        window_reports: 480,
        provisional_reports: 3,
        events_dropped: 0,
        dropped_by_flow: Vec::new(),
    }
}

fn snapshot(stats: MonitorStats) -> MonitorSnapshot {
    MonitorSnapshot {
        stats,
        flows_live: 12,
        pending_events: 5,
        shard_depths: vec![0, 64],
        bytes_per_flow: 2968,
        model_bytes: 151_232,
        alert_fps: None,
        alert_min_kbps: None,
        alert_resolution_floor: None,
        events_by_severity: [500, 20, 1],
        windows_by_method: [1, 2, 3, 474],
        stop_requested: false,
    }
}

#[test]
fn flow_opened_line() {
    let event = QoeEvent::FlowOpened {
        flow: flow(),
        ts: Timestamp::from_micros(1_500_000),
    };
    assert_eq!(
        event.to_json_line(),
        format!(r#"{{"type":"flow_opened","flow":"{FLOW}","ts_us":1500000}}"#)
    );
    let event = QoeEvent::FlowOpened {
        flow: flow6(),
        ts: Timestamp::from_micros(0),
    };
    assert_eq!(
        event.to_json_line(),
        format!(r#"{{"type":"flow_opened","flow":"{FLOW6}","ts_us":0}}"#)
    );
}

#[test]
fn parse_drop_line_for_every_reason_shape() {
    let line = |ts, reason| {
        QoeEvent::ParseDrop {
            ts: Timestamp::from_micros(ts),
            reason,
        }
        .to_json_line()
    };
    assert_eq!(
        line(7, ParseDropReason::Truncated { layer: "ipv4" }),
        r#"{"type":"parse_drop","ts_us":7,"reason":"truncated","layer":"ipv4"}"#
    );
    assert_eq!(
        line(
            8,
            ParseDropReason::Malformed {
                layer: "udp",
                what: "length mismatch"
            }
        ),
        r#"{"type":"parse_drop","ts_us":8,"reason":"malformed","layer":"udp","what":"length mismatch"}"#
    );
    assert_eq!(
        line(9, ParseDropReason::Checksum { layer: "ipv4" }),
        r#"{"type":"parse_drop","ts_us":9,"reason":"checksum","layer":"ipv4"}"#
    );
    assert_eq!(
        line(10, ParseDropReason::NotUdp),
        r#"{"type":"parse_drop","ts_us":10,"reason":"not_udp"}"#
    );
    assert_eq!(
        line(-5, ParseDropReason::NegativeTimestamp),
        r#"{"type":"parse_drop","ts_us":-5,"reason":"negative_timestamp"}"#
    );
    // Strings are escaped: quote, backslash, the three named controls,
    // any other control as \u00XX, everything else (multi-byte too) raw.
    assert_eq!(
        line(
            11,
            ParseDropReason::Malformed {
                layer: "a\"b\\c",
                what: "l1\nl2\r\tend\u{1}\u{1f}é\u{7f}"
            }
        ),
        [
            r#"{"type":"parse_drop","ts_us":11,"reason":"malformed","layer":"a\"b\\c","#,
            r#""what":"l1\nl2\r\tend\u0001\u001f"#,
            "é\u{7f}\"}"
        ]
        .concat()
    );
}

#[test]
fn window_report_lines() {
    let heuristic = QoeEvent::WindowReport {
        flow: flow(),
        report: heuristic_report(3, 1234.5, 30.0, 2.25),
        provisional: false,
    };
    assert_eq!(
        heuristic.to_json_line(),
        format!(
            r#"{{"type":"window_report","flow":"{FLOW}","provisional":false,"report":{{"window":3,"method":"RtpHeuristic","estimate":{{"bitrate_kbps":1234.5,"fps":30,"frame_jitter_ms":2.25}},"features":null,"model_fps":null,"video_packets":412}}}}"#
        )
    );
    let ml = QoeEvent::WindowReport {
        flow: flow(),
        report: ml_report(),
        provisional: false,
    };
    assert_eq!(
        ml.to_json_line(),
        format!(
            r#"{{"type":"window_report","flow":"{FLOW}","provisional":false,"report":{{"window":7,"method":"IpUdpMl","estimate":null,"features":[96,118784.5,1237.34375,211.25,1180,64,1400,31,0.0104,0.0021,0.0098,0.00001,0.25,12],"model_fps":28.75,"video_packets":96}}}}"#
        )
    );
    let provisional = QoeEvent::WindowReport {
        flow: flow6(),
        report: WindowReport {
            method: Method::IpUdpHeuristic,
            video_packets: 0,
            ..heuristic_report(0, 0.0, 0.0, 0.0)
        },
        provisional: true,
    };
    assert_eq!(
        provisional.to_json_line(),
        format!(
            r#"{{"type":"window_report","flow":"{FLOW6}","provisional":true,"report":{{"window":0,"method":"IpUdpHeuristic","estimate":{{"bitrate_kbps":0,"fps":0,"frame_jitter_ms":0}},"features":null,"model_fps":null,"video_packets":0}}}}"#
        )
    );
}

#[test]
fn flow_evicted_lines() {
    let tail = QoeEvent::FlowEvicted {
        flow: flow(),
        reason: EvictReason::EndOfStream,
        final_reports: vec![
            heuristic_report(28, 810.0, 24.0, 1.5),
            WindowReport {
                method: Method::RtpMl,
                ..ml_report()
            },
        ],
    };
    assert_eq!(
        tail.to_json_line(),
        format!(
            r#"{{"type":"flow_evicted","flow":"{FLOW}","reason":"end_of_stream","final_reports":[{{"window":28,"method":"RtpHeuristic","estimate":{{"bitrate_kbps":810,"fps":24,"frame_jitter_ms":1.5}},"features":null,"model_fps":null,"video_packets":412}},{{"window":7,"method":"RtpMl","estimate":null,"features":[96,118784.5,1237.34375,211.25,1180,64,1400,31,0.0104,0.0021,0.0098,0.00001,0.25,12],"model_fps":28.75,"video_packets":96}}]}}"#
        )
    );
    for (reason, tag) in [
        (EvictReason::Idle, "idle"),
        (EvictReason::Requested, "requested"),
    ] {
        let empty = QoeEvent::FlowEvicted {
            flow: flow(),
            reason,
            final_reports: Vec::new(),
        };
        assert_eq!(
            empty.to_json_line(),
            format!(
                r#"{{"type":"flow_evicted","flow":"{FLOW}","reason":"{tag}","final_reports":[]}}"#
            )
        );
    }
}

#[test]
fn dropped_lines() {
    let bare = QoeEvent::Dropped {
        count: 9,
        per_flow: Vec::new(),
    };
    assert_eq!(bare.to_json_line(), r#"{"type":"dropped","count":9}"#);
    let attributed = QoeEvent::Dropped {
        count: 12,
        per_flow: vec![(flow(), 3), (flow6(), 8)],
    };
    assert_eq!(
        attributed.to_json_line(),
        format!(r#"{{"type":"dropped","count":12,"per_flow":{{"{FLOW}":3,"{FLOW6}":8}}}}"#)
    );
}

#[test]
fn number_edge_cases() {
    let estimate = |bitrate_kbps, fps, frame_jitter_ms| {
        let line = QoeEvent::WindowReport {
            flow: flow(),
            report: heuristic_report(1, bitrate_kbps, fps, frame_jitter_ms),
            provisional: false,
        }
        .to_json_line();
        let start = line.find(r#""estimate":"#).expect("estimate key") + 11;
        let end = line.find(r#","features""#).expect("features key");
        line[start..end].to_string()
    };
    // Integral floats print as integers, negative zero as zero.
    assert_eq!(
        estimate(30.0, -0.0, -2.0),
        r#"{"bitrate_kbps":30,"fps":0,"frame_jitter_ms":-2}"#
    );
    // Everything else is `f64`'s shortest round-trip `Display`.
    assert_eq!(
        estimate(0.1 + 0.2, 1.0 / 3.0, 1.5e-7),
        r#"{"bitrate_kbps":0.30000000000000004,"fps":0.3333333333333333,"frame_jitter_ms":0.00000015}"#
    );
    // At and past 9e15 the integer form stops; `Display` never uses an
    // exponent, so the digits are the same either way.
    assert_eq!(
        estimate(1e16, 8_999_999_999_999_999.0, -1e16),
        r#"{"bitrate_kbps":10000000000000000,"fps":8999999999999999,"frame_jitter_ms":-10000000000000000}"#
    );
    // JSON has no NaN or infinities: they degrade to null.
    assert_eq!(
        estimate(f64::NAN, f64::INFINITY, f64::NEG_INFINITY),
        r#"{"bitrate_kbps":null,"fps":null,"frame_jitter_ms":null}"#
    );
}

#[test]
fn stats_line() {
    assert_eq!(
        snapshot(stats()).to_json_line(),
        r#"{"type":"stats","stats":{"packets":112340,"parse_drops":17,"parse_drops_by_reason":{"truncated":2,"malformed":3,"checksum":1,"not_udp":11,"negative_timestamp":0},"flows_opened":16,"flows_evicted":4,"window_reports":480,"provisional_reports":3,"events_dropped":0,"dropped_by_flow":[]},"flows_live":12,"pending_events":5,"shard_depths":[0,64],"bytes_per_flow":2968,"model_bytes":151232,"events_by_severity":{"info":500,"warning":20,"critical":1},"windows_by_method":{"rtp_ml":1,"ip_udp_ml":2,"rtp_heuristic":3,"ip_udp_heuristic":474},"stop_requested":false}"#
    );
    let floors = MonitorSnapshot {
        shard_depths: Vec::new(),
        alert_fps: Some(15.0),
        alert_min_kbps: Some(250.5),
        alert_resolution_floor: Some(360),
        stop_requested: true,
        ..snapshot(stats())
    };
    assert_eq!(
        floors.to_json_line(),
        r#"{"type":"stats","stats":{"packets":112340,"parse_drops":17,"parse_drops_by_reason":{"truncated":2,"malformed":3,"checksum":1,"not_udp":11,"negative_timestamp":0},"flows_opened":16,"flows_evicted":4,"window_reports":480,"provisional_reports":3,"events_dropped":0,"dropped_by_flow":[]},"flows_live":12,"pending_events":5,"shard_depths":[],"bytes_per_flow":2968,"model_bytes":151232,"alert_fps":15,"alert_min_kbps":250.5,"alert_resolution_floor":360,"events_by_severity":{"info":500,"warning":20,"critical":1},"windows_by_method":{"rtp_ml":1,"ip_udp_ml":2,"rtp_heuristic":3,"ip_udp_heuristic":474},"stop_requested":true}"#
    );
}

/// Does not hold on the parent commit: the derived `FlowKey` impl
/// printed `{"addr_a":"10.0.0.1","port_a":5000,…}` here while the
/// `dropped` event reporting the same shed used the `Display` string.
#[test]
fn shed_flow_is_spelled_like_the_dropped_event() {
    let shed = MonitorStats {
        events_dropped: 11,
        dropped_by_flow: vec![(flow(), 3), (flow6(), 8)],
        ..stats()
    };
    let line = snapshot(shed).to_json_line();
    assert!(
        line.contains(&format!(
            r#""events_dropped":11,"dropped_by_flow":[["{FLOW}",3],["{FLOW6}",8]]}},"flows_live""#
        )),
        "{line}"
    );
}

/// Does not hold on the parent commit: every integer went through
/// `f64`, so `u64::MAX` came out as `18446744073709552000`.
#[test]
fn integers_print_exactly() {
    let event = QoeEvent::Dropped {
        count: u64::MAX,
        per_flow: vec![(flow(), (1 << 53) + 1)],
    };
    assert_eq!(
        event.to_json_line(),
        format!(
            r#"{{"type":"dropped","count":18446744073709551615,"per_flow":{{"{FLOW}":9007199254740993}}}}"#
        )
    );
    let opened = QoeEvent::FlowOpened {
        flow: flow(),
        ts: Timestamp::from_micros(i64::MAX),
    };
    assert_eq!(
        opened.to_json_line(),
        format!(r#"{{"type":"flow_opened","flow":"{FLOW}","ts_us":9223372036854775807}}"#)
    );
}

/// What an [`AlertSink`] over `thresholds` writes for `events`.
fn alerts(thresholds: AlertThresholds, events: Vec<QoeEvent>) -> String {
    let mut out = Vec::new();
    let mut sink = AlertSink::with_thresholds(&mut out, thresholds);
    for event in events {
        sink.on_event(&Arc::new(event));
    }
    sink.flush();
    String::from_utf8(out).expect("utf8")
}

#[test]
fn alert_lines() {
    let thresholds = AlertThresholds::with_fps(24.5);
    thresholds.set_min_kbps(300.0);
    // One window under both bars: a line for each, the readings to one
    // decimal (fps) and none (kbps), the bars under the number rule.
    let both = QoeEvent::WindowReport {
        flow: flow(),
        report: heuristic_report(3, 249.6, 21.04, 2.25),
        provisional: false,
    };
    assert_eq!(
        alerts(thresholds.clone(), vec![both]),
        format!(
            r#"{{"type":"alert","metric":"fps","flow":"{FLOW}","window":3,"fps":21.0,"threshold":24.5}}
{{"type":"alert","metric":"bitrate","flow":"{FLOW}","window":3,"kbps":250,"threshold":300}}
"#
        )
    );
    // The resolution floor, in an eviction's sealed tail on an IPv6
    // flow: above the bitrate floor, below the 360p rung.
    let ladder = VcaProfile {
        ladder: vec![
            LadderRung {
                height: 180,
                min_kbps: 0.0,
            },
            LadderRung {
                height: 360,
                min_kbps: 812.5,
            },
        ],
        ..VcaProfile::lab(VcaKind::Meet)
    };
    thresholds.set_resolution_floor(360, &ladder);
    let tail = QoeEvent::FlowEvicted {
        flow: flow6(),
        reason: EvictReason::Idle,
        final_reports: vec![heuristic_report(28, 640.4, 30.0, 1.5)],
    };
    assert_eq!(
        alerts(thresholds.clone(), vec![tail]),
        format!(
            r#"{{"type":"alert","metric":"resolution","flow":"{FLOW6}","window":28,"kbps":640,"floor_height":360,"threshold":812.5}}
"#
        )
    );
    // Nothing for a provisional snapshot, a healthy window, or an event
    // that carries no flow.
    let quiet = vec![
        QoeEvent::WindowReport {
            flow: flow(),
            report: heuristic_report(4, 10.0, 1.0, 0.0),
            provisional: true,
        },
        QoeEvent::WindowReport {
            flow: flow(),
            report: heuristic_report(5, 1234.5, 30.0, 2.25),
            provisional: false,
        },
        QoeEvent::Dropped {
            count: 9,
            per_flow: Vec::new(),
        },
    ];
    assert_eq!(alerts(thresholds, quiet), "");
}

/// Does not hold on the parent commit, which printed the bar's
/// `Display`: `"threshold":inf`, a line no JSON parser accepts.
#[test]
fn alert_bar_that_is_not_a_number_is_null() {
    let mut out = Vec::new();
    let mut sink = AlertSink::new(&mut out, f64::INFINITY);
    sink.on_event(&Arc::new(QoeEvent::WindowReport {
        flow: flow(),
        report: heuristic_report(0, 810.0, 30.0, 1.5),
        provisional: false,
    }));
    assert_eq!(sink.alerts(), 1);
    drop(sink);
    assert_eq!(
        String::from_utf8(out).expect("utf8"),
        format!(
            r#"{{"type":"alert","metric":"fps","flow":"{FLOW}","window":0,"fps":30.0,"threshold":null}}
"#
        )
    );
}
