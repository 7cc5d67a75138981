#![cfg(test)]
#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "tests match out the one event kind they check"
)]

use super::*;
use crate::engine::{Method, WindowReport, MAX_WINDOW_SECS};
use crate::trace::TracePacket;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use vcaml_netpkt::{FlowKey, Timestamp};
use vcaml_rtp::VcaKind;

fn flow_key(n: u8) -> FlowKey {
    let client = IpAddr::V4(Ipv4Addr::new(10, 0, 0, n));
    let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
    FlowKey::canonical(server, 3478, client, 50_000 + u16::from(n), 17).0
}

fn pkt(us: i64, size: u16) -> TracePacket {
    TracePacket {
        ts: Timestamp::from_micros(us),
        size,
        rtp: None,
        truth_media: None,
    }
}

fn video_stream(secs: i64) -> Vec<TracePacket> {
    let mut out = Vec::new();
    for f in 0..secs * 30 {
        let t0 = f * 33_333;
        let size = 1000 + ((f % 9) * 13) as u16;
        out.push(pkt(t0, size));
        out.push(pkt(t0 + 300, size));
    }
    out
}

fn fixed(method: Method) -> MonitorBuilder {
    MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(method))
}

fn window_reports(events: &[QoeEvent]) -> Vec<&WindowReport> {
    events
        .iter()
        .filter_map(|e| match e {
            QoeEvent::WindowReport {
                report,
                provisional: false,
                ..
            } => Some(report),
            _ => None,
        })
        .collect()
}

#[test]
fn builder_defaults_are_paper_shaped() {
    let m = MonitorBuilder::new(VcaKind::Webex).build();
    assert!(format!("{m:?}").contains("vca: Webex"));
    assert_eq!(m.handle().stats_snapshot().flows_live, 0);
    assert_eq!(m.stats().packets, 0);
    assert_eq!(m.pending_events(), 0);
}

#[test]
#[should_panic(expected = "zero window")]
fn a_zero_window_is_refused() {
    let _ = MonitorBuilder::new(VcaKind::Teams).window_secs(0);
}

/// A window past [`MAX_WINDOW_SECS`] could hold a gap that an ML flow's
/// `i32` microsecond log cannot.
#[test]
#[should_panic(expected = "over MAX_WINDOW_SECS")]
fn a_window_past_the_bound_is_refused() {
    let _ = MonitorBuilder::new(VcaKind::Teams).window_secs(MAX_WINDOW_SECS + 1);
}

/// The longest window holds the longest gap it can: an ML flow's one
/// window reports it as its largest inter-arrival time, exactly.
#[test]
fn the_longest_window_reports_its_longest_gap() {
    let window_us = i64::from(MAX_WINDOW_SECS) * 1_000_000;
    let mut m = fixed(Method::IpUdpMl)
        .window_secs(MAX_WINDOW_SECS)
        .idle_timeout(Timestamp::from_secs(i64::from(MAX_WINDOW_SECS) + 1))
        .build();
    let flow = flow_key(1);
    for us in [0, 300, window_us - 1] {
        m.ingest_packet(flow, pkt(us, 1_000));
    }
    let events = m.finish();
    let report = events
        .iter()
        .find_map(|e| match e {
            QoeEvent::FlowEvicted { final_reports, .. } => final_reports.first(),
            _ => None,
        })
        .expect("finish seals the flow");
    assert_eq!(report.window, 0);
    let features = report.features.as_deref().expect("an ML report");
    // `IAT [min]` and `IAT [max]`, in milliseconds.
    assert_eq!(features[10..12], [0.3, (window_us - 301) as f64 / 1e3]);
}

#[test]
fn threads_zero_sizes_workers_from_available_parallelism() {
    let want = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut m = fixed(Method::IpUdpHeuristic).threads(0).build();
    assert!(
        format!("{m:?}").contains(&format!("threads: {want}")),
        "auto thread count must match available parallelism"
    );
    let flow = flow_key(1);
    for p in video_stream(2) {
        m.ingest_packet(flow, p);
    }
    let events = m.finish();
    assert!(events
        .iter()
        .any(|e| matches!(e, QoeEvent::FlowEvicted { .. })));
}

#[test]
fn single_flow_emits_open_windows_and_seal() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(4) {
        m.ingest_packet(flow, p);
    }
    let events = m.finish();
    assert!(matches!(events[0], QoeEvent::FlowOpened { .. }));
    // Mid-stream windows arrive as WindowReport events; the sealed
    // tail rides on the eviction event. Together: one per second.
    let (reason, final_reports) = events
        .iter()
        .find_map(|e| match e {
            QoeEvent::FlowEvicted {
                reason,
                final_reports,
                ..
            } => Some((reason, final_reports)),
            _ => None,
        })
        .expect("finish seals the flow");
    assert_eq!(*reason, EvictReason::EndOfStream);
    let mut windows: Vec<u64> = window_reports(&events)
        .iter()
        .map(|r| r.window)
        .chain(final_reports.iter().map(|r| r.window))
        .collect();
    windows.sort_unstable();
    assert_eq!(windows, vec![0, 1, 2, 3]);
}

#[test]
fn idle_eviction_surfaces_tail_reports() {
    let mut m = fixed(Method::IpUdpHeuristic)
        .idle_timeout(Timestamp::from_secs(5))
        .build();
    let a = flow_key(1);
    let b = flow_key(2);
    for p in video_stream(2) {
        m.ingest_packet(a, p);
    }
    // Flow B keeps the clock moving long after A went idle.
    for s in 0..10i64 {
        m.ingest_packet(b, pkt(2_000_000 + s * 1_000_000, 1100));
    }
    let events: Vec<QoeEvent> = m.drain_events().collect();
    let idle_evictions: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            QoeEvent::FlowEvicted {
                flow,
                reason: EvictReason::Idle,
                final_reports,
            } => Some((flow, final_reports)),
            _ => None,
        })
        .collect();
    assert_eq!(idle_evictions.len(), 1);
    assert_eq!(*idle_evictions[0].0, a);
    assert!(
        !idle_evictions[0].1.is_empty(),
        "tail windows ride on the eviction event"
    );
}

/// A flow, established or still in probation, is sealed by the first
/// packet on its worker past `last_seen + idle_timeout`, not at a later
/// once-a-second sweep; a flow idle for exactly the timeout is not sealed.
#[test]
fn idle_flow_is_sealed_by_the_first_packet_past_its_timeout() {
    // Under an auto method, A (one packet) and B (five) are both still in
    // RTP-confidence probation, and expire on the same deadline.
    for method in [
        EstimationMethod::Fixed(Method::IpUdpHeuristic),
        EstimationMethod::AutoHeuristic,
    ] {
        let mut m = MonitorBuilder::new(VcaKind::Teams)
            .method(method)
            .idle_timeout(Timestamp::from_secs(5))
            .build();
        let (a, b) = (flow_key(1), flow_key(2));
        let idle_sealed = |m: &mut Monitor, b_us: i64| -> Vec<FlowKey> {
            m.ingest_packet(b, pkt(b_us, 1100));
            m.drain_events()
                .filter_map(|e| match e {
                    QoeEvent::FlowEvicted {
                        flow,
                        reason: EvictReason::Idle,
                        ..
                    } => Some(flow),
                    _ => None,
                })
                .collect()
        };
        m.ingest_packet(a, pkt(0, 1100));
        for b_us in [1_000_000, 4_000_000, 5_000_000] {
            assert_eq!(
                idle_sealed(&mut m, b_us),
                [],
                "{method:?}: A idle {b_us} µs"
            );
        }
        assert_eq!(
            idle_sealed(&mut m, 5_001_000),
            [a],
            "{method:?}: A idle for the timeout + 1 ms"
        );
        assert_eq!(
            m.handle().stats_snapshot().flows_live,
            1,
            "{method:?}: only B remains"
        );
    }
}

#[test]
fn auto_method_picks_rtp_for_rtp_flows() {
    use vcaml_rtp::RtpHeader;
    let mut m = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::AutoHeuristic)
        .build();
    let rtp_flow = flow_key(1);
    let plain_flow = flow_key(2);
    for f in 0..60i64 {
        let t0 = f * 33_333;
        for i in 0..2u16 {
            let mut p = pkt(t0 + i64::from(i) * 300, 1100);
            p.rtp = Some(RtpHeader::basic(
                102,
                (f * 2) as u16 + i,
                (f * 3000) as u32,
                1,
                i == 1,
            ));
            m.ingest_packet(rtp_flow, p);
            m.ingest_packet(plain_flow, pkt(t0 + i64::from(i) * 300, 1100));
        }
    }
    let events = m.finish();
    let method_of = |flow: FlowKey| {
        events
            .iter()
            .find_map(|e| match e {
                QoeEvent::WindowReport {
                    flow: f, report, ..
                } if *f == flow => Some(report.method),
                _ => None,
            })
            .expect("flow reported")
    };
    assert_eq!(method_of(rtp_flow), Method::RtpHeuristic);
    assert_eq!(method_of(plain_flow), Method::IpUdpHeuristic);
}

#[test]
fn probation_replay_matches_direct_engine() {
    // Auto selection buffers the first packets; the replay must make
    // the flow's reports identical to a never-buffered run.
    let mut auto = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::AutoHeuristic)
        .build();
    let mut direct = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(3) {
        auto.ingest_packet(flow, p);
        direct.ingest_packet(flow, p);
    }
    let a = auto.finish();
    let d = direct.finish();
    let aw = window_reports(&a);
    let dw = window_reports(&d);
    assert_eq!(aw.len(), dw.len());
    for (x, y) in aw.iter().zip(&dw) {
        assert_eq!(x.window, y.window);
        assert_eq!(x.estimate.unwrap(), y.estimate.unwrap());
    }
}

#[test]
fn flush_after_packets_emits_provisional_windows() {
    let mut m = fixed(Method::IpUdpHeuristic)
        .flush_after_packets(16)
        .build();
    let flow = flow_key(1);
    // One frame per second: nothing finalizes for a long time, so the
    // max-lag flush is the only source of freshness.
    for s in 0..3i64 {
        for i in 0..20i64 {
            m.ingest_packet(flow, pkt(s * 1_000_000 + i * 40_000, 1100));
        }
    }
    let events: Vec<QoeEvent> = m.drain_events().collect();
    let provisional = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                QoeEvent::WindowReport {
                    provisional: true,
                    ..
                }
            )
        })
        .count();
    assert!(provisional > 0, "expected provisional snapshots");
    assert!(m.stats().provisional_reports as usize == provisional);
}

#[test]
fn default_has_no_provisional_reports() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(5) {
        m.ingest_packet(flow, p);
    }
    let events = m.finish();
    assert!(events.iter().all(|e| !matches!(
        e,
        QoeEvent::WindowReport {
            provisional: true,
            ..
        }
    )));
}

/// Every parse-drop summary in `events`, as `(first_us, last_us,
/// by_reason)`.
fn summaries(events: &[QoeEvent]) -> Vec<(i64, i64, [u64; 4])> {
    events
        .iter()
        .filter_map(|e| match e {
            QoeEvent::ParseDrops {
                first_ts,
                last_ts,
                by_reason,
            } => Some((first_ts.as_micros(), last_ts.as_micros(), *by_reason)),
            _ => None,
        })
        .collect()
}

#[test]
fn negative_timestamps_classified() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    m.ingest_packet(flow_key(1), pkt(-5, 1100));
    assert_eq!(m.stats().parse_drops, 1);
    assert_eq!(m.handle().stats_snapshot().flows_live, 0);
    assert_eq!(m.drain_events().count(), 0, "counted, not yet summarized");
    assert_eq!(summaries(&m.finish()), [(-5, -5, [0, 0, 0, 1])]);
}

/// The close rule: a summary covers one `window_secs` interval of record
/// time, closes on the first record (accepted or not) at or past its
/// end, and once more at end of stream — and a drain never closes one.
#[test]
fn drop_summary_closes_on_record_time_and_at_finish() {
    let mut arp = [0u8; 42];
    arp[12..14].copy_from_slice(&[0x08, 0x06]);
    let mut m = fixed(Method::IpUdpHeuristic).build();
    m.ingest_frame(Timestamp::from_millis(100), &arp);
    m.ingest_frame(Timestamp::from_millis(900), &[0u8; 10]);
    assert_eq!(m.drain_events().count(), 0, "a drain closes nothing");
    m.ingest_packet(flow_key(1), pkt(1_000_000, 1100));
    let closed: Vec<QoeEvent> = m.drain_events().collect();
    assert_eq!(summaries(&closed), [(100_000, 900_000, [1, 0, 1, 0])]);
    m.ingest_frame(Timestamp::from_millis(2500), &arp);
    let events = m.finish();
    assert_eq!(summaries(&events), [(2_500_000, 2_500_000, [0, 0, 1, 0])]);
}

/// A record from an earlier interval — a clock step back, or a negative
/// timestamp — folds into the pending summary, widening its bounds; the
/// interval's end stays where its first record put it.
#[test]
fn drop_summary_folds_a_clock_step_back() {
    let mut m = fixed(Method::IpUdpHeuristic).window_secs(2).build();
    m.ingest_frame(Timestamp::from_millis(4500), &[0u8; 10]); // interval [4 s, 6 s)
    m.ingest_frame(Timestamp::from_millis(100), &[0u8; 10]); // step back
    m.ingest_packet(flow_key(1), pkt(-3, 1100)); // negative
    m.ingest_packet(flow_key(1), pkt(5_999_999, 1100)); // accepted, no close
    assert_eq!(
        m.drain_events().filter(|e| e.tag() == "parse_drop").count(),
        0
    );
    m.ingest_frame(Timestamp::from_secs(6), &[0u8; 10]);
    let events = m.finish();
    assert_eq!(
        summaries(&events),
        [
            (-3, 4_500_000, [2, 0, 0, 1]),
            (6_000_000, 6_000_000, [1, 0, 0, 0])
        ]
    );
}

#[test]
fn raw_frame_ingestion_parses_and_routes() {
    use vcaml_netpkt::{EtherType, EthernetRepr, Ipv4Repr, MacAddr, UdpRepr};
    let payload = [0x16u8; 40]; // DTLS-looking, not RTP
    let eth = EthernetRepr {
        src: MacAddr([2, 0, 0, 0, 0, 1]),
        dst: MacAddr([2, 0, 0, 0, 0, 2]),
        ethertype: EtherType::Ipv4,
    };
    let mut frame = vec![0u8; 14 + 20 + 8 + payload.len()];
    eth.emit(&mut frame);
    Ipv4Repr {
        src: [10, 0, 0, 1],
        dst: [10, 0, 0, 2],
        protocol: vcaml_netpkt::IP_PROTO_UDP,
        payload_len: 8 + payload.len(),
        ttl: 64,
        ident: 7,
    }
    .emit(&mut frame[14..]);
    frame[42..].copy_from_slice(&payload);
    UdpRepr {
        src_port: 40000,
        dst_port: 50000,
    }
    .emit_v4(
        &mut frame[34..],
        payload.len(),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
    );

    let mut m = fixed(Method::IpUdpHeuristic).build();
    m.ingest_frame(Timestamp::from_millis(1), &frame);
    assert_eq!(m.stats().packets, 1);
    assert_eq!(m.handle().stats_snapshot().flows_live, 1);

    // Truncating below the Ethernet header classifies as truncated.
    m.ingest_frame(Timestamp::from_millis(2), &frame[..10]);
    assert_eq!(m.stats().parse_drops, 1);
    assert_eq!(m.stats().parse_drops_by_reason, [1, 0, 0, 0]);
    assert_eq!(summaries(&m.finish()), [(2000, 2000, [1, 0, 0, 0])]);
}

#[test]
fn json_lines_are_one_object_per_event() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(2) {
        m.ingest_packet(flow, p);
    }
    m.ingest_packet(flow, pkt(-1, 100));
    for e in m.finish() {
        let line = e.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "single line: {line}");
        assert!(line.contains("\"type\""), "{line}");
    }
}

#[test]
fn corrupt_first_timestamp_does_not_pin_the_clock() {
    // A corrupt far-future timestamp on the very first packet must
    // not anchor the stream clock a year ahead: sane traffic "in the
    // past" re-anchors it backward, so idle sweeps keep working.
    let year_us = 365 * 24 * 3_600i64 * 1_000_000;
    let mut m = fixed(Method::IpUdpHeuristic)
        .idle_timeout(Timestamp::from_secs(5))
        .build();
    let a = flow_key(1);
    let b = flow_key(2);
    m.ingest_packet(a, pkt(year_us, 1100));
    for p in video_stream(2) {
        m.ingest_packet(a, p);
    }
    // Flow B keeps the (re-anchored) clock moving after A goes idle.
    for s in 0..10i64 {
        m.ingest_packet(b, pkt(2_000_000 + s * 1_000_000, 1100));
    }
    let idle_evictions = m
        .drain_events()
        .filter(|e| {
            matches!(
                e,
                QoeEvent::FlowEvicted {
                    reason: EvictReason::Idle,
                    ..
                }
            )
        })
        .count();
    assert!(
        idle_evictions >= 1,
        "idle sweeps must survive the corruption"
    );
    assert_eq!(
        m.handle().stats_snapshot().flows_live,
        1,
        "only the live flow remains"
    );
}

/// Flows opened by packets more than one timeout behind a clock that a
/// corrupt first timestamp pinned are not expired against that clock.
/// The corroborating packets re-anchor it, the flows live on, and the
/// flow "from the future" is reclaimed at once.
#[test]
fn flows_opened_behind_a_corrupt_clock_are_not_expired_against_it() {
    let year_us = 365 * 24 * 3_600i64 * 1_000_000;
    let mut m = fixed(Method::IpUdpHeuristic)
        .idle_timeout(Timestamp::from_secs(5))
        .build();
    m.ingest_packet(flow_key(9), pkt(year_us, 1100));
    // Two packets behind the clock, then the third that re-anchors it.
    for n in 1..=3u8 {
        m.ingest_packet(flow_key(n), pkt(i64::from(n) * 1_000, 1100));
    }
    let sealed: Vec<FlowKey> = m
        .drain_events()
        .filter_map(|e| match e {
            QoeEvent::FlowEvicted { flow, .. } => Some(flow),
            _ => None,
        })
        .collect();
    assert_eq!(sealed, [flow_key(9)]);
    assert_eq!(m.handle().stats_snapshot().flows_live, 3);
}

/// Finalized windows per flow, from a finished monitor's events.
fn windows_by_flow(events: &[QoeEvent]) -> HashMap<FlowKey, Vec<WindowReport>> {
    let mut out: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
    for e in events {
        if let Some(flow) = e.flow() {
            out.entry(flow)
                .or_default()
                .extend_from_slice(e.final_reports());
        }
    }
    for reports in out.values_mut() {
        reports.sort_by_key(|r| r.window);
    }
    out
}

#[test]
fn threaded_monitor_matches_inline_windows() {
    let feed: Vec<(FlowKey, TracePacket)> = {
        let mut feed = Vec::new();
        for n in 1..=8u8 {
            for p in video_stream(3) {
                let mut q = p;
                q.size = q.size.saturating_add(u16::from(n) * 10);
                feed.push((flow_key(n), q));
            }
        }
        feed.sort_by_key(|(_, p)| p.ts);
        feed
    };
    let run = |threads: usize| {
        let mut m = fixed(Method::IpUdpHeuristic).threads(threads).build();
        for (flow, p) in &feed {
            m.ingest_packet(*flow, *p);
        }
        m.finish()
    };
    let inline = windows_by_flow(&run(1));
    let threaded = windows_by_flow(&run(4));
    assert_eq!(inline.len(), 8);
    assert_eq!(threaded.len(), 8);
    for (flow, want) in &inline {
        let got = &threaded[flow];
        assert_eq!(got.len(), want.len(), "flow {flow}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.window, w.window, "flow {flow}");
            assert_eq!(g.estimate, w.estimate, "flow {flow} window {}", g.window);
        }
    }
}

#[test]
fn threaded_monitor_preserves_per_flow_event_order() {
    let mut m = fixed(Method::IpUdpHeuristic).threads(3).build();
    let flows: Vec<FlowKey> = (1..=6).map(flow_key).collect();
    for p in video_stream(3) {
        for flow in &flows {
            m.ingest_packet(*flow, p);
        }
    }
    let mut seen_open: HashMap<FlowKey, bool> = HashMap::new();
    let mut last_window: HashMap<FlowKey, u64> = HashMap::new();
    let mut sealed: HashMap<FlowKey, bool> = HashMap::new();
    for e in m.finish() {
        match &e {
            QoeEvent::FlowOpened { flow, .. } => {
                assert!(!seen_open.contains_key(flow), "duplicate open");
                seen_open.insert(*flow, true);
            }
            QoeEvent::WindowReport { flow, report, .. } => {
                assert!(seen_open[flow], "report before open");
                assert!(!sealed.contains_key(flow), "report after seal");
                if let Some(prev) = last_window.get(flow) {
                    assert!(report.window > *prev, "windows out of order");
                }
                last_window.insert(*flow, report.window);
            }
            QoeEvent::FlowEvicted { flow, .. } => {
                assert!(seen_open[flow], "evict before open");
                sealed.insert(*flow, true);
            }
            _ => {}
        }
    }
    assert_eq!(sealed.len(), 6, "every flow sealed exactly once");
}

#[test]
fn drop_oldest_bounds_queue_and_accounts_drops() {
    // Reference: unbounded run counts every event the feed produces.
    let mut reference = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(5) {
        reference.ingest_packet(flow, p);
    }
    let total = reference.drain_events().count();
    assert!(total > 4, "feed produces enough events to overflow");

    let mut m = fixed(Method::IpUdpHeuristic)
        .queue_capacity(3)
        .overflow(OverflowPolicy::DropOldest)
        .build();
    for p in video_stream(5) {
        m.ingest_packet(flow, p);
    }
    let drained: Vec<QoeEvent> = m.drain_events().collect();
    let QoeEvent::Dropped {
        count,
        ref per_flow,
    } = drained[0]
    else {
        panic!("drain must lead with the drop marker");
    };
    assert_eq!(drained.len() - 1, 3, "queue stayed at capacity");
    assert_eq!(
        count as usize + (drained.len() - 1),
        total,
        "dropped + kept == every event emitted"
    );
    let stats = m.stats();
    assert_eq!(stats.events_dropped, count);
    // Every shed event belonged to the one flow in the feed, so the
    // per-flow breakdown accounts for the full count in both the
    // marker and the stats snapshot.
    assert_eq!(per_flow.len(), 1);
    assert_eq!(per_flow[0], (flow, count));
    assert_eq!(stats.dropped_by_flow, *per_flow);
}

#[test]
fn pending_events_counts_queued_and_staged_events() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    m.ingest_packet(flow_key(1), pkt(-5, 1100)); // one drop, pending
    assert_eq!(
        m.pending_events(),
        0,
        "a pending summary is not an event yet"
    );
    m.ingest_packet(flow_key(1), pkt(-1, 1100)); // same interval
    m.ingest_frame(Timestamp::ZERO, &[0u8; 10]); // closes it, opens the next
    assert_eq!(m.pending_events(), 1);
    let events: Vec<QoeEvent> = m.drain_events().collect();
    assert_eq!(summaries(&events), [(-5, -1, [0, 0, 0, 2])]);
    assert_eq!(m.pending_events(), 0);

    // A drain dropped part-way leaves what it did not yield staged:
    // pending_events counts it, and the next drain returns it.
    for p in video_stream(5) {
        m.ingest_packet(flow_key(1), p);
    }
    let queued = m.pending_events();
    assert!(queued > 2, "the feed queues a flow opening and its windows");
    let first = m.drain_events().next();
    assert!(matches!(first, Some(QoeEvent::FlowOpened { .. })));
    assert_eq!(m.pending_events(), queued - 1, "the rest stay staged");
    assert_eq!(m.drain_events().count(), queued - 1);
    assert_eq!(m.pending_events(), 0);

    // A threaded monitor driven through its own front doors is its own
    // drainer: its capacity-1 Block queue grows past the bound, and
    // pending_events reports all of it.
    let mut t = fixed(Method::IpUdpHeuristic)
        .threads(2)
        .queue_capacity(1)
        .build();
    let feed = video_stream(20);
    for &p in &feed {
        t.ingest_packet(flow_key(1), p);
        t.ingest_packet(flow_key(2), p);
    }
    // Full batches reached the workers; the tail waits in the lanes.
    let sent = (feed.len() * 2 / INGEST_BATCH * INGEST_BATCH) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while t.stats().packets < sent {
        assert!(std::time::Instant::now() < deadline, "workers stalled");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        t.pending_events() > 1,
        "a self-drained queue grows past its bound"
    );
    assert_eq!(t.drain_events().count() + t.finish().len(), {
        let mut inline = fixed(Method::IpUdpHeuristic).build();
        for &p in &feed {
            inline.ingest_packet(flow_key(1), p);
            inline.ingest_packet(flow_key(2), p);
        }
        inline.finish().len()
    });
}

/// Eviction requests go to their flow's owner's mailbox, and applying
/// them empties it: a long-lived monitor holds no request it has
/// already applied, however many it has received.
#[test]
fn applied_eviction_requests_are_not_held() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    let handle = m.handle();
    m.ingest_packet(flow_key(1), pkt(0, 1100));
    for _ in 0..10_000 {
        handle.evict_flow(flow_key(1));
    }
    let requested = m
        .drain_events()
        .filter(|e| {
            matches!(
                e,
                QoeEvent::FlowEvicted {
                    reason: EvictReason::Requested,
                    ..
                }
            )
        })
        .count();
    assert_eq!(requested, 1, "the flow sealed once, the rest were unknown");
    assert_eq!(handle.shared.held_evictions(), 0, "inline");

    // Threaded: each worker empties its own mailbox on its idle tick.
    let t = fixed(Method::IpUdpHeuristic).threads(2).build();
    let handle = t.handle();
    for n in 0..10_000u32 {
        handle.evict_flow(flow_key((n % 200) as u8));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.shared.held_evictions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "applied eviction requests are still held"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn parse_drops_are_counted_by_reason() {
    let mut m = fixed(Method::IpUdpHeuristic).build();
    m.ingest_packet(flow_key(1), pkt(-5, 1100)); // negative timestamp
    m.ingest_frame(Timestamp::from_millis(1), &[0u8; 10]); // cut Ethernet header
    let mut arp = [0u8; 42];
    arp[12..14].copy_from_slice(&[0x08, 0x06]);
    for ms in 2..5 {
        m.ingest_frame(Timestamp::from_millis(ms), &arp); // not UDP
    }
    let stats = m.stats();
    assert_eq!(stats.parse_drops, 5);
    assert_eq!(stats.parse_drops_by_reason, [1, 0, 3, 1]);
    // The counters agree with the summaries the same records produced:
    // one for the negative timestamp's interval, one for [0 s, 1 s).
    let events = m.finish();
    assert_eq!(
        summaries(&events),
        [(-5, -5, [0, 0, 0, 1]), (1000, 4000, [1, 0, 3, 0])]
    );
    let mut by_event = [0u64; 4];
    for (_, _, by_reason) in summaries(&events) {
        for (sum, n) in by_event.iter_mut().zip(by_reason) {
            *sum += n;
        }
    }
    assert_eq!(by_event, stats.parse_drops_by_reason);
}

#[test]
fn inline_block_policy_never_loses_events() {
    // The single-threaded producer cannot park on its own queue:
    // Block grows past the bound instead, so nothing is lost.
    let mut bounded = fixed(Method::IpUdpHeuristic).queue_capacity(2).build();
    let mut unbounded = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for p in video_stream(4) {
        bounded.ingest_packet(flow, p);
        unbounded.ingest_packet(flow, p);
    }
    assert_eq!(bounded.finish().len(), unbounded.finish().len());
}

#[test]
fn reprobe_upgrades_late_rtp_flow() {
    use vcaml_rtp::RtpHeader;
    let mut m = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::AutoHeuristic)
        .build();
    let flow = flow_key(1);
    // A DTLS-style handshake long enough to flunk probation…
    for i in 0..RTP_PROBATION_PACKETS as i64 {
        m.ingest_packet(flow, pkt(i * 10_000, 900));
    }
    // …then real RTP media at 30 fps, two packets per frame, for
    // comfortably more than one re-probe interval.
    let frames = (RTP_REPROBE_PACKETS as i64) * 2;
    for f in 0..frames {
        let t0 = 200_000 + f * 33_333;
        for i in 0..2i64 {
            let mut p = pkt(t0 + i * 300, 1100);
            p.rtp = Some(RtpHeader::basic(
                102,
                (f * 2 + i) as u16,
                (f * 3000) as u32,
                1,
                i == 1,
            ));
            m.ingest_packet(flow, p);
        }
    }
    let events = m.finish();
    let methods: Vec<Method> = events
        .iter()
        .flat_map(|e| e.final_reports())
        .map(|r| r.method)
        .collect();
    assert!(
        methods.contains(&Method::IpUdpHeuristic),
        "early windows use the fallback: {methods:?}"
    );
    assert!(
        methods.contains(&Method::RtpHeuristic),
        "re-probe upgrades to the RTP engine: {methods:?}"
    );
    // The upgrade seam must not double-report: every finalized
    // window index appears exactly once.
    let mut windows: Vec<u64> = events
        .iter()
        .flat_map(|e| e.final_reports())
        .map(|r| r.window)
        .collect();
    let n = windows.len();
    windows.sort_unstable();
    windows.dedup();
    assert_eq!(windows.len(), n, "no duplicate final windows at the seam");
    // Once upgraded, the flow stays upgraded.
    let last_fallback = methods.iter().rposition(|m| *m == Method::IpUdpHeuristic);
    let first_rtp = methods.iter().position(|m| *m == Method::RtpHeuristic);
    assert!(last_fallback.unwrap() < first_rtp.unwrap());
}

#[test]
fn fixed_methods_never_reprobe() {
    // A fixed IP/UDP monitor must keep its engine even on pure RTP
    // traffic (the paper's no-RTP-access deployment).
    use vcaml_rtp::RtpHeader;
    let mut m = fixed(Method::IpUdpHeuristic).build();
    let flow = flow_key(1);
    for f in 0..(RTP_REPROBE_PACKETS as i64 * 2) {
        let mut p = pkt(f * 16_000, 1100);
        p.rtp = Some(RtpHeader::basic(102, f as u16, (f * 1500) as u32, 1, true));
        m.ingest_packet(flow, p);
    }
    for e in m.finish() {
        for r in e.final_reports() {
            assert_eq!(r.method, Method::IpUdpHeuristic);
        }
    }
}

#[test]
fn corrupt_future_timestamp_does_not_mass_evict() {
    let mut m = fixed(Method::IpUdpHeuristic)
        .idle_timeout(Timestamp::from_secs(30))
        .build();
    let flow = flow_key(1);
    m.ingest_packet(flow, pkt(0, 1100));
    // A year-ahead corrupt timestamp advances the clock by at most one
    // idle timeout, so the healthy flow survives the next sweep.
    let year_us = 365 * 24 * 3_600i64 * 1_000_000;
    m.ingest_packet(flow, pkt(year_us, 1100));
    m.ingest_packet(flow, pkt(1_000_000, 1100));
    assert_eq!(m.handle().stats_snapshot().flows_live, 1);
    let evicted = m
        .drain_events()
        .filter(|e| matches!(e, QoeEvent::FlowEvicted { .. }))
        .count();
    assert_eq!(evicted, 0);
}

/// Every ML flow shares the monitor's one forest, so the per-flow gauge
/// counts the flow's own state only and the forest is reported once.
#[test]
fn bytes_per_flow_excludes_the_shared_model() {
    use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};
    let mut data = Dataset::new(vcaml_features::ipudp_feature_names());
    for i in 0..240 {
        let row: Vec<f64> = (0..14).map(|j| f64::from((i * (j + 3)) % 31)).collect();
        data.push(&row, row[1] + 0.5 * row[12]);
    }
    let params = RandomForestParams {
        n_trees: 6,
        ..RandomForestParams::default()
    };
    let forest = RandomForest::fit(&data, Task::Regression, &params);

    // One flow, streamed past several 1 Hz idle sweeps (which publish the
    // gauge).
    let gauges = |builder: MonitorBuilder| {
        let mut m = builder.build();
        for p in video_stream(3) {
            m.ingest_packet(flow_key(1), p);
        }
        let snap = m.handle().stats_snapshot();
        (snap.bytes_per_flow, snap.model_bytes)
    };
    for method in [Method::IpUdpMl, Method::RtpMl] {
        let (bare, no_model) = gauges(fixed(method));
        let (with_model, model_bytes) = gauges(fixed(method).model(forest.clone()));
        assert!(bare > 0, "{method:?}: a sweep has published the gauge");
        assert_eq!(
            with_model, bare,
            "{method:?}: attaching a forest moved the per-flow gauge"
        );
        assert_eq!(no_model, 0, "{method:?}: no model, no model bytes");
        assert_eq!(model_bytes, forest.heap_bytes() as u64, "{method:?}");
    }
}
