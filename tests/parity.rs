//! Batch/streaming parity: replaying a trace packet-by-packet through the
//! unified incremental engine must reproduce the batch pipeline's
//! per-window features and heuristic QoE estimates for **all four
//! methods**, on realistic simulated traffic — and the `FlowTable`
//! must keep interleaved concurrent calls perfectly separated. RTP
//! sequence and timestamp wraps and SSRC relabels move no window.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use vcaml_suite::datasets::oracle::{
    estimate_windows, ipudp_features, ipudp_frames, rtp_features, rtp_frames, windows_by_second,
    PktObs,
};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::features::{FlowFeatureAcc, IpUdpFeatureAcc, StatsMode, DEFAULT_THETA_IAT_US};
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::{PayloadMap, RtpHeader, VcaKind};
use vcaml_suite::vcaml::api::build_engine;
use vcaml_suite::vcaml::engine::{
    replay, FlowTable, IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine,
};
use vcaml_suite::vcaml::{
    build_samples,
    qoe::{QoeEstimate, QoeWindower},
    EngineConfig, Frame, MediaClassifier, Method, QoeEstimator, Trace, TracePacket, WindowReport,
    MAX_WINDOW_SECS,
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
/// frame assembly + end-time windowing) window for window, exactly: on
/// corpus calls, and on one call whose adjacent packets are swapped
/// inside windows, so frames seal out of end order.
#[test]
fn ipudp_heuristic_streaming_equals_batch() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 11, 3) {
            assert_ipudp_heuristic_equals_batch(trace, config);
        }
    }
    let config = EngineConfig::paper(VcaKind::Teams);
    let mut swapped = corpus(VcaKind::Teams, 11, 1).remove(0);
    let second = |p: &TracePacket| p.ts.second_index();
    for i in (0..swapped.packets.len() - 1).step_by(2) {
        if second(&swapped.packets[i]) == second(&swapped.packets[i + 1]) {
            swapped.packets.swap(i, i + 1);
        }
    }
    let ids = assert_ipudp_heuristic_equals_batch(&swapped, config);
    // Some frame created later ends earlier than one created before it.
    let classifier = MediaClassifier::new(config.vmin);
    let video = swapped.packets.iter().filter(|p| classifier.is_video(p));
    let n_frames = ids.iter().max().map_or(0, |&id| id as usize + 1);
    let mut ends = vec![Timestamp::from_micros(i64::MIN); n_frames];
    for (p, &id) in video.zip(&ids) {
        ends[id as usize] = ends[id as usize].max(p.ts);
    }
    assert!(
        ends.windows(2).any(|e| e[1] < e[0]),
        "the swaps left every frame in end order"
    );
}

/// Replays `trace` through the IP/UDP Heuristic engine and asserts each
/// window equals the batch path's; returns each video packet's frame id.
fn assert_ipudp_heuristic_equals_batch(trace: &Trace, config: EngineConfig) -> Vec<u64> {
    let n_windows = trace.duration_secs as usize;
    let classifier = MediaClassifier::new(config.vmin);
    let video = trace.packets.iter().filter(|p| classifier.is_video(p));
    let (frames, ids) = ipudp_frames(config.heuristic, video);
    let batch = estimate_windows(&frames, n_windows, 1);

    let reports = replay(&mut IpUdpHeuristicEngine::new(config), trace, 1);
    assert_eq!(reports.len(), batch.len());
    for (r, b) in reports.iter().zip(&batch) {
        assert_eq!(r.estimate, Some(*b), "{}: window {}", trace.vca, r.window);
    }
    ids
}

/// The RTP Heuristic engine must equal the batch RTP frame assembly +
/// windowing, exactly.
#[test]
fn rtp_heuristic_streaming_equals_batch() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 12, 3) {
            let n_windows = trace.duration_secs as usize;
            let frames = rtp_frames(trace);
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

/// The IP/UDP ML engine's per-window features must equal the oracle's
/// slice formula (sorts and sets over `windows_by_second` slices, no
/// accumulator) on every window, and `replay` must place exactly one
/// report per second of the trace.
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
        assert_eq!(reports.len(), trace.duration_secs as usize);
        for (wi, r) in reports.iter().enumerate() {
            assert_eq!(r.window, wi as u64);
            let empty = Vec::new();
            let slice = windows.get(wi).unwrap_or(&empty);
            let batch = ipudp_features(slice, 1.0, config.theta_iat_us);
            assert_eq!(r.features.as_deref().unwrap(), &batch[..], "window {wi}");
        }
    }
}

/// The RTP ML engine's per-window features must equal an independent
/// batch reconstruction: the oracle's flow features over
/// `windows_by_second` slices of PT-video packets plus its RTP features
/// with the session lag anchor — not a comparison of the engine against
/// itself. Corpus calls, and a hand-built call whose retransmissions
/// carry some frames' timestamps and timestamps of no frame, so the
/// intersection and union counts are exercised.
#[test]
fn rtp_ml_features_streaming_equals_batch() {
    for trace in &corpus(VcaKind::Teams, 18, 2) {
        assert_rtp_ml_equals_oracle(trace);
    }
    assert_rtp_ml_equals_oracle(&step_back_call());
    // Features 12–15: distinct video and RTX timestamps, their
    // intersection and their union.
    for r in assert_rtp_ml_equals_oracle(&rtx_overlap_call()) {
        let f = r.features.as_deref().unwrap();
        let (vid, rtx, both, union) = (f[12], f[13], f[14], f[15]);
        assert!(0.0 < both && both < vid.min(rtx), "window {}", r.window);
        assert!(union > vid.max(rtx), "window {}", r.window);
    }
}

/// Three seconds of Teams-lab video at 30 frames per second, three
/// packets a frame. Every fourth frame is retransmitted (every eighth
/// twice), near a window's end in the next window, and every fifth is
/// followed by a retransmission whose timestamp is no frame's.
fn rtx_overlap_call() -> Trace {
    let rtx_pt = 103;
    let map = PayloadMap {
        video_rtx: Some(rtx_pt),
        ..PayloadMap::lab(VcaKind::Teams)
    };
    let (mut packets, mut seq, mut rtx_seq) = (Vec::new(), 0u16, 0u16);
    let mut push = |us: i64, h: RtpHeader| {
        packets.push(TracePacket {
            ts: Timestamp::from_micros(us),
            size: 1_000,
            rtp: Some(h),
            truth_media: None,
        })
    };
    for frame in 0..90i64 {
        let (us, ts) = (frame * 33_333, 3_000 * frame as u32);
        for k in 0..3 {
            push(
                us + k * 150,
                RtpHeader::basic(map.video, seq, ts, 1, k == 2),
            );
            seq = seq.wrapping_add(1);
        }
        let mut rtx = |us: i64, ts: u32| {
            push(us, RtpHeader::basic(rtx_pt, rtx_seq, ts, 2, false));
            rtx_seq = rtx_seq.wrapping_add(1);
        };
        if frame % 4 == 0 {
            rtx(us + 20_000, ts);
        }
        if frame % 8 == 0 {
            // A second copy, up to a window later.
            rtx(us + 30_000, ts);
        }
        if frame % 5 == 0 {
            rtx(us + 25_000, ts + 1_500);
        }
    }
    packets.sort_by_key(|p| p.ts);
    Trace {
        vca: VcaKind::Teams,
        payload_map: map,
        packets,
        truth: Vec::new(),
        duration_secs: 3,
    }
}

/// Two seconds of Teams-lab video at 30 frames per second, two packets a
/// frame, in arrival order. One frame's second packet carries a
/// timestamp 10 ms before its first: the frame completes at its latest
/// timestamp, not at its last-arriving packet's.
fn step_back_call() -> Trace {
    let map = PayloadMap::lab(VcaKind::Teams);
    let mut packets = Vec::new();
    for frame in 0..60u16 {
        let us = i64::from(frame) * 33_333;
        let second = if frame == 45 { us - 10_000 } else { us + 150 };
        for (k, at) in [us, second].into_iter().enumerate() {
            packets.push(TracePacket {
                ts: Timestamp::from_micros(at),
                size: 1_000,
                rtp: Some(RtpHeader::basic(
                    map.video,
                    2 * frame + k as u16,
                    3_000 * u32::from(frame),
                    1,
                    k == 1,
                )),
                truth_media: None,
            });
        }
    }
    Trace {
        vca: VcaKind::Teams,
        payload_map: map,
        packets,
        truth: Vec::new(),
        duration_secs: 2,
    }
}

/// Replays `trace` through the RTP ML engine, asserts every window's
/// features equal the oracle's bit for bit, and returns the reports.
fn assert_rtp_ml_equals_oracle(trace: &Trace) -> Vec<WindowReport> {
    let config = EngineConfig::paper(trace.vca);
    let stream = |kind| -> Vec<_> {
        trace
            .packets
            .iter()
            .filter_map(|p| Some((p.ts, p.rtp?, p.size)))
            .filter(|(_, h, _)| trace.payload_map.classify(h.payload_type) == Some(kind))
            .collect()
    };
    let video = stream(vcaml_suite::rtp::MediaKind::Video);
    let rtx = stream(vcaml_suite::rtp::MediaKind::VideoRtx);
    let lag_ref = video.first().map(|&(t, h, _)| (t, h.timestamp));
    let flow_pkts: Vec<PktObs> = video
        .iter()
        .map(|&(ts, _, size)| PktObs { ts, size })
        .collect();
    let flow_windows = windows_by_second(&flow_pkts, trace.duration_secs, 1);

    let reports = replay(&mut RtpMlEngine::new(config, trace.payload_map), trace, 1);
    for r in &reports {
        let wi = r.window as usize;
        let lo = wi as i64 * 1_000_000;
        let hi = lo + 1_000_000;
        let in_win = |pkts: &[(Timestamp, _, u16)]| -> Vec<_> {
            pkts.iter()
                .filter(|(t, _, _)| t.as_micros() >= lo && t.as_micros() < hi)
                .map(|&(t, h, _)| (t, h))
                .collect()
        };
        let empty = Vec::new();
        let flow = ipudp_features(
            flow_windows.get(wi).unwrap_or(&empty),
            1.0,
            config.theta_iat_us,
        );
        let mut batch = flow[..12].to_vec();
        batch.extend(rtp_features(&in_win(&video), &in_win(&rtx), lag_ref));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(r.features.as_deref().unwrap_or_default()),
            bits(&batch),
            "window {wi}"
        );
    }
    reports
}

/// One hand-built window through both feature accumulators and through
/// the oracle, compared bit for bit (`-0.0` is not `0.0` here): the
/// IP/UDP accumulator's 14 features, and the flow accumulator's 12 that
/// RTP ML shares.
fn assert_window_matches_oracle(label: &str, pkts: &[(i64, u16)], window_secs: f64) {
    let theta = DEFAULT_THETA_IAT_US;
    let slice: Vec<PktObs> = pkts
        .iter()
        .map(|&(us, size)| PktObs {
            ts: Timestamp::from_micros(us),
            size,
        })
        .collect();
    let want = ipudp_features(&slice, window_secs, theta).map(f64::to_bits);
    let mut ipudp = IpUdpFeatureAcc::new(StatsMode::Exact, theta);
    let mut flow = FlowFeatureAcc::new();
    for p in &slice {
        ipudp.push(p.ts, p.size);
        flow.push(p.ts, p.size);
    }
    let mut got = [0.0; IpUdpFeatureAcc::WIDTH];
    ipudp.features_into(window_secs, &mut got);
    assert_eq!(got.map(f64::to_bits), want, "{label}: IpUdpFeatureAcc");
    let mut got = [0.0; FlowFeatureAcc::WIDTH];
    flow.features_into(window_secs, &mut got);
    assert_eq!(
        got.map(f64::to_bits),
        want[..FlowFeatureAcc::WIDTH],
        "{label}: FlowFeatureAcc"
    );
}

/// The accumulators' edges against the oracle, bit for bit: an empty
/// window (its byte rate is the empty sum, `-0.0`), one packet, equal
/// sizes, the largest size, zero and backward gaps, a gap of exactly
/// θ, even and odd counts, and the longest window's longest gaps, which
/// the `i32` gap log must hold as the oracle's `i64` does.
#[test]
fn ml_features_edge_windows_equal_the_oracle() {
    let theta = DEFAULT_THETA_IAT_US;
    let cases: Vec<(&str, Vec<(i64, u16)>)> = vec![
        ("empty", vec![]),
        ("one packet", vec![(250_000, 1_200)]),
        (
            "equal sizes, odd count",
            (0..9).map(|i| (i * 400, 1_100)).collect(),
        ),
        (
            "equal sizes, even count",
            (0..10).map(|i| (i * 33_333, 1_100)).collect(),
        ),
        (
            "size 65535",
            vec![
                (0, 65_535),
                (10, 65_535),
                (20, 1),
                (30_000, 65_535),
                (30_001, 0),
            ],
        ),
        (
            "zero gaps",
            vec![(5_000, 900), (5_000, 901), (5_000, 900), (40_000, 1_000)],
        ),
        (
            "backward gaps",
            vec![
                (10_000, 1_000),
                (9_000, 1_001),
                (12_500, 1_002),
                (2_000, 1_000),
                (50_000, 800),
                (49_999, 800),
            ],
        ),
        (
            "gaps of exactly theta",
            vec![
                (0, 700),
                (theta, 701),
                (2 * theta, 702),
                (2 * theta + theta - 1, 703),
                (5 * theta - 1, 704),
            ],
        ),
        (
            "even count, mixed",
            vec![(0, 1_250), (300, 1_102), (33_000, 890), (33_400, 893)],
        ),
        (
            "odd count, mixed",
            vec![
                (0, 1_250),
                (300, 1_102),
                (33_000, 890),
                (33_400, 893),
                (66_100, 1_250),
            ],
        ),
        (
            "a frame-shaped window",
            (0..195)
                .map(|i| {
                    let frame = i / 6;
                    let us = frame * 33_367 + (i % 6) * 180 + (i * 37) % 11;
                    (
                        us,
                        1_000 + (frame % 13) as u16 * 17 - (i % 6 == 5) as u16 * 400,
                    )
                })
                .collect(),
        ),
    ];
    for (label, pkts) in &cases {
        for window_secs in [1.0, 2.0] {
            assert_window_matches_oracle(label, pkts, window_secs);
        }
    }

    // The longest window, whose in-window gaps reach the `i32` log's
    // range: one of `window_us - 1`, and a backward (reordered) one
    // almost as long.
    let window_us = i64::from(MAX_WINDOW_SECS) * 1_000_000;
    let longest: Vec<(&str, Vec<(i64, u16)>)> = vec![
        (
            "a gap of window_us - 1",
            vec![(0, 1_000), (window_us - 1, 1_200)],
        ),
        (
            "a backward gap in the longest window",
            vec![
                (3_000_000, 900),
                (window_us - 1, 1_000),
                (1, 1_100),
                (1 + theta, 1_100),
            ],
        ),
    ];
    for (label, pkts) in &longest {
        assert_window_matches_oracle(label, pkts, f64::from(MAX_WINDOW_SECS));
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

/// The QoE windower and `estimate_windows`, which buckets and scores
/// frames with arithmetic of its own, agree bit for bit: on a simulated
/// trace, and on frames ending exactly on a window boundary, a tick
/// either side of one, or together, sealed into the log in a seeded
/// shuffled order.
#[test]
fn qoe_windower_agrees_with_estimate_windows() {
    let trace = &corpus(VcaKind::Webex, 17, 1)[0];
    let edges: Vec<Frame> = (0..=4i64)
        .flat_map(|s| [-1, 0, 0, 1].map(|d| s * 1_000_000 + d))
        .enumerate()
        .map(|(i, us)| Frame {
            end_ts: Timestamp::from_micros(us),
            size_bytes: 1_000 + 7 * i,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(17);
    let bits = |e: &QoeEstimate| [e.fps, e.bitrate_kbps, e.frame_jitter_ms].map(f64::to_bits);
    for (frames, n) in [
        (rtp_frames(trace), trace.duration_secs as usize),
        (edges, 4),
    ] {
        let batch = estimate_windows(&frames, n, 1);
        // Sealed in a shuffled order: the windower orders its log itself.
        let mut sealed: Vec<(u64, Frame)> = (0..).zip(frames.iter().copied()).collect();
        sealed.shuffle(&mut rng);
        let mut windower = QoeWindower::new(1);
        windower.sealed().extend(sealed);
        let mut streamed = Vec::new();
        windower.drain_until(n as u64, |w, e, _| streamed.push((w, e)));
        assert_eq!(streamed.len(), batch.len());
        for ((w, s), b) in streamed.iter().zip(&batch) {
            assert_eq!(bits(s), bits(b), "window {w}: {s:?} vs {b:?}");
        }
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

/// The RTP fields the RTP methods read are identifiers and clocks that
/// wrap, not magnitudes: two corpus calls give every engine the same
/// windows when their sequence numbers wrap past 65 535 mid-call, when
/// their RTP timestamps wrap past 2^32 mid-call, and when every SSRC is
/// relabelled.
#[test]
fn rtp_wraps_and_relabels_leave_every_window_as_it_was() {
    let map = PayloadMap::lab(VcaKind::Teams);
    let windows = |trace: &Trace| -> Vec<Vec<String>> {
        Method::ALL
            .map(|method| {
                let mut engine =
                    build_engine(method, EngineConfig::paper(VcaKind::Teams), map, None);
                let reports = stream(&mut engine, trace);
                reports.iter().map(|r| format!("{r:?}")).collect()
            })
            .to_vec()
    };
    for call in corpus(VcaKind::Teams, 58, 2) {
        let original = windows(&call);
        assert!(
            original.iter().all(|w| w.len() >= 20),
            "a window per second"
        );
        // The header of the packet half-way through the call: after the
        // offsets, its sequence number and its timestamp read 0, so the
        // fields wrap right before it.
        let mid = call
            .packets
            .iter()
            .skip(call.packets.len() / 2)
            .find_map(|p| p.rtp)
            .expect("an RTP packet past the middle");
        let transformed = |edit: &dyn Fn(&mut RtpHeader)| {
            let mut trace = call.clone();
            for h in trace.packets.iter_mut().filter_map(|p| p.rtp.as_mut()) {
                edit(h);
            }
            trace
        };
        let seq_wrap = transformed(&|h| h.sequence = h.sequence.wrapping_sub(mid.sequence));
        let ts_wrap = transformed(&|h| h.timestamp = h.timestamp.wrapping_sub(mid.timestamp));
        let relabel = transformed(&|h| h.ssrc = !h.ssrc);
        // A wrap: the mid packet's stream steps back by over half the
        // field's range.
        let wrapped = |trace: &Trace, field: fn(&RtpHeader) -> u32, half: u32| {
            let values: Vec<u32> = trace
                .packets
                .iter()
                .filter_map(|p| p.rtp.filter(|h| h.ssrc == mid.ssrc).map(|h| field(&h)))
                .collect();
            values.windows(2).any(|v| v[0].saturating_sub(v[1]) > half)
        };
        assert!(
            wrapped(&seq_wrap, |h| u32::from(h.sequence), 1 << 15),
            "no sequence wrap"
        );
        assert!(
            wrapped(&ts_wrap, |h| h.timestamp, 1 << 31),
            "no timestamp wrap"
        );
        for (name, trace) in [
            ("sequence wrap", &seq_wrap),
            ("timestamp wrap", &ts_wrap),
            ("SSRC relabel", &relabel),
        ] {
            for (method, (got, want)) in
                Method::ALL.iter().zip(windows(trace).iter().zip(&original))
            {
                assert_eq!(got.len(), want.len(), "{method:?} under a {name}: windows");
                let first_change = got.iter().zip(want).find(|(g, w)| g != w);
                assert_eq!(first_change, None, "{method:?} under a {name}");
            }
        }
    }
}
