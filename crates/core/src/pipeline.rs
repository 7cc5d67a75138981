//! Window samples for training: every labelled trace becomes one
//! [`WindowSample`] per prediction window, carrying both ML feature
//! vectors, both heuristic estimates and the window's ground truth — the
//! rows the IP/UDP ML and RTP ML models are fitted on (§3.2.2).
//!
//! Window construction is a *replay* over the incremental engines of
//! [`crate::engine`]: each trace is streamed packet-by-packet through one
//! engine per method, so the training rows come from exactly the code a
//! live monitor runs (no separate batch windowing/frame-assembly path).

use crate::api::build_engine;
use crate::engine::{place_windows, EngineConfig, Method, WindowReport};
use crate::leaf::LeafMutex;
use crate::qoe::QoeEstimate;
use crate::source::{PacketSource, ReplaySource, SourcePacket};
use crate::trace::{Trace, TruthRow};
use vcaml_features::flow_stats::flow_feature_names;
use vcaml_features::{ipudp_feature_names, rtp_feature_names};
use vcaml_rtp::VcaKind;

/// Vestige: another name for [`EngineConfig`], kept only because
/// `benchmark/` and `tests/bench_surface.rs` name it.
pub type PipelineOpts = EngineConfig;

/// One prediction window with every method's inputs and outputs.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// IP/UDP ML feature vector (14 features).
    pub ipudp_features: Vec<f64>,
    /// RTP ML feature vector (12 flow + 12 RTP features).
    pub rtp_features: Vec<f64>,
    /// Ground truth for the window.
    pub truth: TruthRow,
    /// IP/UDP Heuristic estimate.
    pub heur: QoeEstimate,
    /// RTP Heuristic estimate.
    pub rtp_heur: QoeEstimate,
    /// Which trace the window came from.
    pub trace_id: usize,
}

/// A corpus of windows ready for training/evaluation.
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// The VCA the corpus belongs to.
    pub vca: VcaKind,
    /// All windows across all traces.
    pub samples: Vec<WindowSample>,
    /// Feature names for the IP/UDP ML model.
    pub ipudp_names: Vec<String>,
    /// Feature names for the RTP ML model.
    pub rtp_names: Vec<String>,
    /// Window length used.
    pub window_secs: u32,
}

/// Aggregates per-second truth rows into one row for a multi-second
/// window.
fn aggregate_truth(rows: &[TruthRow]) -> TruthRow {
    assert!(!rows.is_empty());
    let n = rows.len() as f64;
    let height = {
        let mut counts = std::collections::HashMap::new();
        for r in rows {
            *counts.entry(r.height).or_insert(0u32) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(h, c)| (c, h))
            .map(|(h, _)| h)
            .unwrap_or(0)
    };
    TruthRow {
        second: rows[0].second,
        bitrate_kbps: rows.iter().map(|r| r.bitrate_kbps).sum::<f64>() / n,
        fps: rows.iter().map(|r| r.fps).sum::<f64>() / n,
        frame_jitter_ms: rows.iter().map(|r| r.frame_jitter_ms).sum::<f64>() / n,
        height,
    }
}

/// Builds one trace's window samples (the per-shard unit of
/// [`build_samples`]): one [`ReplaySource`] pass through all four
/// engines at once, then truth alignment. The source is the same
/// abstraction a live [`crate::runner::MonitorRunner`] drives, so the
/// batch evaluation's feed path and the monitor's feed path are one
/// mechanism — and a single pass over the packets beats four.
fn trace_samples(
    trace_id: usize,
    trace: &Trace,
    config: EngineConfig,
    w: u32,
) -> Vec<WindowSample> {
    // Engines in replay order, each built by the facade's single
    // construction point. The flow key is nominal: engines are per-flow
    // state machines and the replay is one flow by construction.
    let methods = [
        Method::IpUdpHeuristic,
        Method::IpUdpMl,
        Method::RtpHeuristic,
        Method::RtpMl,
    ];
    let mut lanes = methods.map(|m| {
        let engine = build_engine(m, config, trace.payload_map, None);
        (engine, Vec::<WindowReport>::new())
    });
    let flow = vcaml_netpkt::FlowKey::canonical(
        std::net::IpAddr::V4(std::net::Ipv4Addr::new(127, 0, 0, 1)),
        1,
        std::net::IpAddr::V4(std::net::Ipv4Addr::new(127, 0, 0, 2)),
        2,
        17,
    )
    .0;
    let mut source = ReplaySource::from_trace(trace, flow);
    #[expect(
        clippy::expect_used,
        reason = "replay over an in-memory trace never returns an IO error"
    )]
    while let Some(pkt) = source
        .next_packet()
        .expect("in-memory replay is infallible")
    {
        let SourcePacket::Parsed { packet, .. } = pkt else {
            unreachable!("trace replays yield pre-parsed packets");
        };
        for (engine, out) in &mut lanes {
            engine.push_into(&packet, out);
        }
    }
    let [heur_r, ip_ml_r, rtp_heur_r, rtp_ml_r] = lanes.map(|(mut engine, mut out)| {
        engine.finish_into(&mut out);
        place_windows(engine.as_ref(), out, trace.duration_secs, w)
    });

    let mut samples = Vec::new();
    for wi in 0..heur_r.len() {
        // Truth rows covered by this window.
        let rows: Vec<TruthRow> = trace
            .truth
            .iter()
            .filter(|r| {
                r.second >= wi as i64 * i64::from(w) && r.second < (wi as i64 + 1) * i64::from(w)
            })
            .copied()
            .collect();
        if rows.is_empty() {
            continue;
        }
        let truth = aggregate_truth(&rows);

        #[expect(
            clippy::expect_used,
            reason = "ML engines always attach features, and heuristic engines an estimate, to their reports"
        )]
        samples.push(WindowSample {
            ipudp_features: ip_ml_r[wi]
                .features
                .clone()
                .expect("ML report carries features"),
            rtp_features: rtp_ml_r[wi]
                .features
                .clone()
                .expect("ML report carries features"),
            truth,
            heur: heur_r[wi]
                .estimate
                .expect("heuristic report carries estimate"),
            rtp_heur: rtp_heur_r[wi]
                .estimate
                .expect("heuristic report carries estimate"),
            trace_id,
        });
    }
    samples
}

/// Builds the window samples for a corpus of traces by replaying each
/// trace through the four streaming engines — one packet pass per method,
/// no per-trace buffering of windowed packet lists.
///
/// Traces are independent, so the replays fan out across scoped worker
/// threads (the batch-side analogue of the monitor's shard workers: the
/// engines are `Send`, each worker owns its trace's engines outright)
/// and the per-trace sample lists are collected back **in trace order**
/// — the output is bit-identical to the sequential loop it replaces.
pub fn build_samples(traces: &[Trace], config: &EngineConfig) -> SampleSet {
    assert!(!traces.is_empty(), "empty corpus");
    let vca = traces[0].vca;
    let w = config.window_secs;

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(traces.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let collected = LeafMutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= traces.len() {
                    break;
                }
                if !traces[i].is_complete() {
                    continue; // §4.1 filtering
                }
                let samples = trace_samples(i, &traces[i], *config, w);
                collected.lock().push((i, samples));
            });
        }
    });
    let mut collected = collected.into_inner();
    collected.sort_by_key(|(i, _)| *i);
    let samples: Vec<WindowSample> = collected.into_iter().flat_map(|(_, s)| s).collect();

    let mut rtp_names = flow_feature_names();
    rtp_names.extend(rtp_feature_names());
    SampleSet {
        vca,
        samples,
        ipudp_names: ipudp_feature_names(),
        rtp_names,
        window_secs: w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePacket;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::{MediaKind, PayloadMap, RtpHeader};

    /// Builds a toy trace: `fps` equal-size-fragmented frames per second
    /// for `secs` seconds, plus audio packets, with exact ground truth.
    fn toy_trace(fps: u32, secs: u32, frame_bytes: u16, seed: u64) -> Trace {
        let mut packets = Vec::new();
        let mut seq = 0u16;
        let frame_gap_us = 1_000_000 / i64::from(fps);
        for s in 0..secs {
            for f in 0..fps {
                let t0 = i64::from(s) * 1_000_000 + i64::from(f) * frame_gap_us;
                // Two packets per frame, sizes within 1 byte; frame sizes
                // alternate so consecutive frames differ.
                let bump = ((s * fps + f + seed as u32) % 7 * 20) as u16;
                let size = frame_bytes + bump;
                let ts = (s * fps + f) * 3000;
                for i in 0..2u16 {
                    packets.push(TracePacket {
                        ts: Timestamp::from_micros(t0 + i64::from(i) * 300),
                        size: size + (i % 2),
                        rtp: Some(RtpHeader::basic(102, seq, ts, 1, i == 1)),
                        truth_media: Some(MediaKind::Video),
                    });
                    seq = seq.wrapping_add(1);
                }
            }
            // Audio packets: 50/s at 20 ms.
            for a in 0..50 {
                packets.push(TracePacket {
                    ts: Timestamp::from_micros(i64::from(s) * 1_000_000 + a * 20_000),
                    size: 150,
                    rtp: Some(RtpHeader::basic(111, a as u16, 0, 2, false)),
                    truth_media: Some(MediaKind::Audio),
                });
            }
        }
        packets.sort_by_key(|p| p.ts);
        let truth = (0..secs)
            .map(|s| TruthRow {
                second: i64::from(s),
                bitrate_kbps: f64::from(fps) * f64::from(frame_bytes) * 2.0 * 8.0 / 1000.0,
                fps: f64::from(fps),
                frame_jitter_ms: 2.0,
                height: if frame_bytes > 800 { 360 } else { 180 },
            })
            .collect();
        Trace {
            vca: VcaKind::Teams,
            payload_map: PayloadMap::lab(VcaKind::Teams),
            packets,
            truth,
            duration_secs: secs,
        }
    }

    fn toy_corpus() -> Vec<Trace> {
        vec![
            toy_trace(30, 10, 1000, 1),
            toy_trace(15, 10, 600, 2),
            toy_trace(24, 10, 900, 3),
            toy_trace(10, 10, 700, 4),
        ]
    }

    fn opts() -> EngineConfig {
        EngineConfig::paper(VcaKind::Teams)
    }

    #[test]
    fn build_samples_counts_windows() {
        let set = build_samples(&toy_corpus(), &opts());
        assert_eq!(set.samples.len(), 40);
        assert_eq!(set.ipudp_names.len(), 14);
        assert_eq!(set.rtp_names.len(), 24);
        assert_eq!(set.samples[0].ipudp_features.len(), 14);
        assert_eq!(set.samples[0].rtp_features.len(), 24);
    }

    #[test]
    fn incomplete_traces_filtered() {
        let mut t = toy_trace(30, 10, 1000, 1);
        t.truth.truncate(5); // fewer logs than duration → dropped (§4.1)
        let good = toy_trace(15, 10, 600, 2);
        let set = build_samples(&[t, good], &opts());
        assert_eq!(set.samples.len(), 10);
    }

    #[test]
    fn wider_windows_aggregate_truth() {
        let mut o = opts();
        o.window_secs = 2;
        let set = build_samples(&toy_corpus(), &o);
        assert_eq!(set.samples.len(), 20);
        // fps truth equals per-second fps (constant in the toy traces).
        assert!(set.samples.iter().all(|s| s.truth.fps >= 10.0));
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn empty_corpus_rejected() {
        let _ = build_samples(&[], &opts());
    }
}
