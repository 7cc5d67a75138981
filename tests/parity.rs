//! Batch/streaming parity: replaying a trace packet-by-packet through the
//! unified incremental engine must reproduce the batch pipeline's
//! per-window features and heuristic QoE estimates for **all four
//! methods**, on realistic simulated traffic — and the `FlowTable`
//! must keep interleaved concurrent calls perfectly separated.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::features::{ipudp_features, windows_by_second, PktObs};
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::engine::{
    replay, FlowTable, IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine,
};
use vcaml_suite::vcaml::{
    build_samples, estimate_windows, qoe::QoeWindower, rtp_heuristic, EngineConfig, IpUdpHeuristic,
    MediaClassifier, Method, QoeEstimator, Trace, TracePacket, WindowReport,
};

fn corpus(vca: VcaKind, seed: u64, n: usize) -> Vec<Trace> {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: n,
            min_secs: 20,
            max_secs: 30,
            seed,
        },
    )
}

fn stream<E: QoeEstimator>(engine: &mut E, trace: &Trace) -> Vec<WindowReport> {
    let mut out = Vec::new();
    for p in &trace.packets {
        engine.push_into(p, &mut out);
    }
    engine.finish_into(&mut out);
    out
}

/// The IP/UDP Heuristic engine must equal the batch path (whole-trace
/// frame assembly + end-time windowing) window for window, exactly.
#[test]
fn ipudp_heuristic_streaming_equals_batch() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 11, 3) {
            let n_windows = trace.duration_secs as usize;
            let video: Vec<(Timestamp, u16)> = trace
                .packets
                .iter()
                .filter(|p| MediaClassifier::new(config.vmin).is_video(p))
                .map(|p| (p.ts, p.size))
                .collect();
            let (frames, _) = IpUdpHeuristic::new(config.heuristic).assemble(&video);
            let batch = estimate_windows(&frames, n_windows, 1);

            let reports = replay(&mut IpUdpHeuristicEngine::new(config), trace, 1);
            assert_eq!(reports.len(), batch.len());
            for (r, b) in reports.iter().zip(&batch) {
                assert_eq!(r.estimate.unwrap(), *b, "{vca}: window {}", r.window);
            }
        }
    }
}

/// The RTP Heuristic engine must equal the batch RTP frame assembly +
/// windowing, exactly.
#[test]
fn rtp_heuristic_streaming_equals_batch() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 12, 3) {
            let n_windows = trace.duration_secs as usize;
            let frames = rtp_heuristic::assemble(trace);
            let batch = estimate_windows(&frames, n_windows, 1);
            let reports = replay(
                &mut RtpHeuristicEngine::new(config, trace.payload_map),
                trace,
                1,
            );
            assert_eq!(reports.len(), batch.len());
            for (r, b) in reports.iter().zip(&batch) {
                assert_eq!(r.estimate.unwrap(), *b, "{vca}: window {}", r.window);
            }
        }
    }
}

/// The IP/UDP ML engine's per-window features must equal the batch slice
/// formula on every window.
#[test]
fn ipudp_ml_features_streaming_equals_batch() {
    let config = EngineConfig::paper(VcaKind::Teams);
    for trace in &corpus(VcaKind::Teams, 13, 3) {
        let video: Vec<PktObs> = trace
            .packets
            .iter()
            .filter(|p| MediaClassifier::new(config.vmin).is_video(p))
            .map(|p| PktObs {
                ts: p.ts,
                size: p.size,
            })
            .collect();
        let windows = windows_by_second(&video, trace.duration_secs, 1);
        let reports = replay(&mut IpUdpMlEngine::new(config), trace, 1);
        for r in &reports {
            let empty = Vec::new();
            let slice = windows.get(r.window as usize).unwrap_or(&empty);
            let batch = ipudp_features(slice, 1.0, config.theta_iat_us);
            assert_eq!(
                r.features.as_deref().unwrap(),
                &batch[..],
                "window {}",
                r.window
            );
        }
    }
}

/// The RTP ML engine's per-window features must equal an independent
/// batch reconstruction: flow features over `windows_by_second` slices of
/// PT-video packets plus `RtpWindow::features` with the session lag
/// anchor — not a comparison of the engine against itself.
#[test]
fn rtp_ml_features_streaming_equals_batch() {
    use vcaml_suite::features::rtp_feats::LagReference;
    use vcaml_suite::features::{flow_features, RtpWindow};

    let vca = VcaKind::Teams;
    let config = EngineConfig::paper(vca);
    for trace in &corpus(vca, 18, 2) {
        let video: Vec<_> = trace
            .packets
            .iter()
            .filter(|p| {
                p.rtp.is_some_and(|h| {
                    trace.payload_map.classify(h.payload_type)
                        == Some(vcaml_suite::rtp::MediaKind::Video)
                })
            })
            .collect();
        let rtx: Vec<_> = trace
            .packets
            .iter()
            .filter(|p| {
                p.rtp.is_some_and(|h| {
                    trace.payload_map.classify(h.payload_type)
                        == Some(vcaml_suite::rtp::MediaKind::VideoRtx)
                })
            })
            .collect();
        let lag_ref = video.first().map(|p| LagReference {
            t0: p.ts,
            ts0: p.rtp.unwrap().timestamp,
        });
        let flow_pkts: Vec<PktObs> = video
            .iter()
            .map(|p| PktObs {
                ts: p.ts,
                size: p.size,
            })
            .collect();
        let flow_windows = windows_by_second(&flow_pkts, trace.duration_secs, 1);

        let reports = replay(&mut RtpMlEngine::new(config, trace.payload_map), trace, 1);
        for r in &reports {
            let wi = r.window as usize;
            let lo = wi as i64 * 1_000_000;
            let hi = lo + 1_000_000;
            let in_win = |t: Timestamp| t.as_micros() >= lo && t.as_micros() < hi;
            let rtp_win = RtpWindow {
                video: video
                    .iter()
                    .filter(|p| in_win(p.ts))
                    .map(|p| (p.ts, p.rtp.unwrap()))
                    .collect(),
                rtx: rtx
                    .iter()
                    .filter(|p| in_win(p.ts))
                    .map(|p| (p.ts, p.rtp.unwrap()))
                    .collect(),
            };
            let empty = Vec::new();
            let mut batch = flow_features(flow_windows.get(wi).unwrap_or(&empty), 1.0);
            batch.extend(rtp_win.features(lag_ref));
            assert_eq!(r.features.as_deref().unwrap(), &batch[..], "window {wi}");
        }
    }
}

/// All four methods at once: `build_samples` (which replays the engines)
/// must produce windows that a second, independent streaming pass
/// reproduces feature-for-feature and estimate-for-estimate.
#[test]
fn build_samples_windows_reproducible_by_streaming() {
    let vca = VcaKind::Meet;
    let config = EngineConfig::paper(vca);
    let traces = corpus(vca, 14, 2);
    let set = build_samples(&traces, &config);
    assert!(set.samples.len() > 30);

    for (trace_id, trace) in traces.iter().enumerate() {
        let heur = stream(&mut IpUdpHeuristicEngine::new(config), trace);
        let ip_ml = stream(&mut IpUdpMlEngine::new(config), trace);
        let rtp_heur = stream(
            &mut RtpHeuristicEngine::new(config, trace.payload_map),
            trace,
        );
        let rtp_ml = stream(&mut RtpMlEngine::new(config, trace.payload_map), trace);
        for s in set.samples.iter().filter(|s| s.trace_id == trace_id) {
            let wi = s.truth.second as usize;
            assert_eq!(
                s.heur,
                heur[wi].estimate.unwrap(),
                "trace {trace_id} window {wi}"
            );
            assert_eq!(
                s.rtp_heur,
                rtp_heur[wi].estimate.unwrap(),
                "trace {trace_id} window {wi}"
            );
            assert_eq!(
                &s.ipudp_features[..],
                ip_ml[wi].features.as_deref().unwrap(),
                "trace {trace_id} window {wi}"
            );
            assert_eq!(
                &s.rtp_features[..],
                rtp_ml[wi].features.as_deref().unwrap(),
                "trace {trace_id} window {wi}"
            );
        }
    }
    let _ = Method::ALL; // the four methods above are exactly Method::ALL
}

/// A FlowTable fed three interleaved calls must reproduce, per flow, the
/// exact windows of a dedicated single-flow engine.
#[test]
fn flow_table_separates_interleaved_calls() {
    let vca = VcaKind::Teams;
    let config = EngineConfig::paper(vca);
    let traces = corpus(vca, 16, 3);

    let key_of = |i: usize| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 7, 0, i as u8 + 1));
        let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
        FlowKey::canonical(relay, 3478, client, 52_000 + i as u16, 17).0
    };

    // One global arrival-ordered feed, as a tap would deliver it.
    let mut feed = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        feed.extend(t.packets.iter().map(|p| (key_of(i), *p)));
    }
    feed.sort_by_key(|(_, p)| p.ts);

    let mut table = FlowTable::new(1, Timestamp::from_secs(120), move |_: &FlowKey| {
        IpUdpHeuristicEngine::new(config)
    });
    let mut got: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
    for (key, p) in &feed {
        table.push_hashed_into(key.hash64(), *key, p, got.entry(*key).or_default());
    }
    assert_eq!(table.len(), 3);
    for (key, rest) in table.drain_finish_all() {
        got.entry(key).or_default().extend(rest);
    }

    for (i, trace) in traces.iter().enumerate() {
        let solo = stream(&mut IpUdpHeuristicEngine::new(config), trace);
        let flow = &got[&key_of(i)];
        assert_eq!(flow.len(), solo.len(), "flow {i}");
        for (f, s) in flow.iter().zip(&solo) {
            assert_eq!(f.window, s.window);
            assert_eq!(
                f.estimate.unwrap(),
                s.estimate.unwrap(),
                "flow {i} window {}",
                f.window
            );
            assert_eq!(f.video_packets, s.video_packets);
        }
    }
}

/// The QoE windower and `estimate_windows` agree on frame bucketing.
#[test]
fn qoe_windower_agrees_with_estimate_windows() {
    let vca = VcaKind::Webex;
    let trace = &corpus(vca, 17, 1)[0];
    let frames = rtp_heuristic::assemble(trace);
    let n = trace.duration_secs as usize;
    let batch = estimate_windows(&frames, n, 1);
    let mut windower = QoeWindower::new(1);
    for (id, f) in frames.iter().enumerate() {
        if windower
            .window_of(f.end_ts)
            .is_some_and(|w| (w as usize) < n)
        {
            windower.offer(id as u64, f);
        }
    }
    let mut streamed = Vec::new();
    windower.drain_until_into(n as u64, &mut streamed);
    assert_eq!(streamed.len(), batch.len());
    for ((_, s), b) in streamed.iter().zip(&batch) {
        assert_eq!(s, b);
    }
}

/// Forced slot recycling in the open-addressed table: flows evicted idle
/// and re-opened under the *same keys* land in recycled slab slots
/// (swap-remove + backward-shift deletion), and both lives stay
/// window-exact against dedicated single-flow engines.
#[test]
fn recycled_slots_stay_window_exact() {
    let vca = VcaKind::Teams;
    let config = EngineConfig::paper(vca);
    let trace = &corpus(vca, 18, 1)[0];
    const FLOWS: usize = 8;
    let key_of = |i: usize| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 9, 0, i as u8 + 1));
        let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7));
        FlowKey::canonical(relay, 3478, client, 53_000 + i as u16, 17).0
    };

    // The second life starts well past the idle timeout so one sweep
    // between the lives reclaims every slot.
    let gap_us = (trace.duration_secs as i64 + 30) * 1_000_000;
    let shifted: Vec<TracePacket> = trace
        .packets
        .iter()
        .map(|p| {
            let mut q = *p;
            q.ts = Timestamp::from_micros(p.ts.as_micros() + gap_us);
            q
        })
        .collect();

    let mut table = FlowTable::new(1, Timestamp::from_secs(5), move |_: &FlowKey| {
        IpUdpHeuristicEngine::new(config)
    });

    let mut life1: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
    for p in &trace.packets {
        for i in 0..FLOWS {
            let key = key_of(i);
            table.push_hashed_into(key.hash64(), key, p, life1.entry(key).or_default());
        }
    }
    assert_eq!(table.len(), FLOWS);
    let evicted = table.evict_idle(Timestamp::from_micros(gap_us));
    assert_eq!(evicted.len(), FLOWS, "one sweep reclaims every slot");
    assert!(table.is_empty());
    for (key, tail) in evicted {
        life1
            .get_mut(&key)
            .expect("evicted key was fed")
            .extend(tail);
    }

    // Same keys again: fresh engines in recycled slots.
    let mut life2: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
    for p in &shifted {
        for i in 0..FLOWS {
            let key = key_of(i);
            table.push_hashed_into(key.hash64(), key, p, life2.entry(key).or_default());
        }
    }
    assert_eq!(table.len(), FLOWS);
    for (key, tail) in table.drain_finish_all() {
        life2
            .get_mut(&key)
            .expect("reopened key was fed")
            .extend(tail);
    }

    let want1 = stream(&mut IpUdpHeuristicEngine::new(config), trace);
    let mut solo2 = IpUdpHeuristicEngine::new(config);
    let mut want2 = Vec::new();
    for p in &shifted {
        solo2.push_into(p, &mut want2);
    }
    solo2.finish_into(&mut want2);

    for i in 0..FLOWS {
        let key = key_of(i);
        for (label, got, want) in [
            ("first life", &life1[&key], &want1),
            ("second life", &life2[&key], &want2),
        ] {
            assert_eq!(got.len(), want.len(), "flow {i} {label}: window count");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.window, w.window, "flow {i} {label}");
                assert_eq!(
                    g.estimate, w.estimate,
                    "flow {i} {label} window {}",
                    w.window
                );
                assert_eq!(g.video_packets, w.video_packets, "flow {i} {label}");
            }
        }
    }
}
