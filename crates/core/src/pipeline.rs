//! End-to-end estimation pipelines for all four methods of the paper:
//! `IP/UDP Heuristic`, `IP/UDP ML`, `RTP Heuristic`, `RTP ML` — feature
//! extraction, cross-validated training, transfer evaluation, and
//! summaries.
//!
//! Window construction is a *replay* over the incremental engines of
//! [`crate::engine`]: each trace is streamed packet-by-packet through one
//! engine per method, so the batch evaluation exercises exactly the code a
//! live monitor runs (no separate batch windowing/frame-assembly path).

use crate::api::build_engine;
use crate::engine::{place_windows, EngineConfig, WindowReport};
use crate::heuristic::HeuristicParams;
use crate::qoe::QoeEstimate;
use crate::resolution::ResolutionScheme;
use crate::source::{PacketSource, ReplaySource, SourcePacket};
use crate::trace::{Trace, TruthRow};
use vcaml_features::flow_stats::flow_feature_names;
use vcaml_features::{ipudp_feature_names, rtp_feature_names};
use vcaml_mlcore::{
    accuracy, cross_val_predict, mae, mrae, percentile, ConfusionMatrix, Dataset, RandomForest,
    RandomForestParams, Task,
};
#[cfg(test)]
use vcaml_netpkt::Timestamp;
#[cfg(test)]
use vcaml_rtp::MediaKind;
use vcaml_rtp::VcaKind;

/// The four methods compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Frame reconstruction from packet sizes only (Algorithm 1).
    IpUdpHeuristic,
    /// Random forest on IP/UDP features.
    IpUdpMl,
    /// Frame reconstruction from RTP timestamps + marker bits.
    RtpHeuristic,
    /// Random forest on flow + RTP features.
    RtpMl,
}

impl Method {
    /// All four, in the paper's legend order.
    pub const ALL: [Method; 4] = [
        Method::RtpMl,
        Method::IpUdpMl,
        Method::RtpHeuristic,
        Method::IpUdpHeuristic,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "IP/UDP Heuristic",
            Method::IpUdpMl => "IP/UDP ML",
            Method::RtpHeuristic => "RTP Heuristic",
            Method::RtpMl => "RTP ML",
        }
    }

    /// The variant's own name, as `{:?}` prints it — how a window
    /// report's JSON spells its `method`.
    pub(crate) fn variant_name(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "IpUdpHeuristic",
            Method::IpUdpMl => "IpUdpMl",
            Method::RtpHeuristic => "RtpHeuristic",
            Method::RtpMl => "RtpMl",
        }
    }

    /// Whether this is one of the ML methods.
    pub fn is_ml(&self) -> bool {
        matches!(self, Method::IpUdpMl | Method::RtpMl)
    }

    /// Stable machine-readable slug (metric labels, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            Method::IpUdpHeuristic => "ip_udp_heuristic",
            Method::IpUdpMl => "ip_udp_ml",
            Method::RtpHeuristic => "rtp_heuristic",
            Method::RtpMl => "rtp_ml",
        }
    }

    /// Position in [`Method::ALL`] — a dense slot for per-method
    /// counter arrays.
    pub fn index(&self) -> usize {
        match self {
            Method::RtpMl => 0,
            Method::IpUdpMl => 1,
            Method::RtpHeuristic => 2,
            Method::IpUdpHeuristic => 3,
        }
    }
}

/// The four estimated QoE metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Frames per second (regression; MAE).
    FrameRate,
    /// Video bitrate in kbps (regression; MRAE).
    Bitrate,
    /// Frame jitter in ms (regression; MAE).
    FrameJitter,
    /// Frame height class (classification; accuracy).
    Resolution,
}

/// Pipeline configuration (paper defaults via [`PipelineOpts::paper`]).
#[derive(Debug, Clone)]
pub struct PipelineOpts {
    /// Media-classification size threshold.
    pub vmin: u16,
    /// IP/UDP Heuristic parameters.
    pub heuristic: HeuristicParams,
    /// Microburst IAT threshold, microseconds.
    pub theta_iat_us: i64,
    /// Prediction window length, seconds.
    pub window_secs: u32,
    /// Random-forest hyperparameters.
    pub forest: RandomForestParams,
    /// Cross-validation folds (paper: 5).
    pub cv_folds: usize,
}

impl PipelineOpts {
    /// The paper's configuration for a VCA (§4.3).
    pub fn paper(vca: VcaKind) -> Self {
        PipelineOpts {
            vmin: crate::media::DEFAULT_VMIN,
            heuristic: HeuristicParams::paper(vca),
            theta_iat_us: vcaml_features::DEFAULT_THETA_IAT_US,
            window_secs: 1,
            forest: RandomForestParams::default(),
            cv_folds: 5,
        }
    }

    /// The streaming-engine configuration these options describe.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            vmin: self.vmin,
            heuristic: self.heuristic,
            window_secs: self.window_secs,
            theta_iat_us: self.theta_iat_us,
            stats: vcaml_features::StatsMode::Exact,
        }
    }
}

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

impl SampleSet {
    /// Distinct ground-truth frame heights observed (for resolution
    /// schemes).
    pub fn observed_heights(&self) -> Vec<u32> {
        let mut hs: Vec<u32> = self
            .samples
            .iter()
            .map(|s| s.truth.height)
            .filter(|&h| h > 0)
            .collect();
        hs.sort_unstable();
        hs.dedup();
        hs
    }

    /// The resolution scheme for this corpus.
    pub fn resolution_scheme(&self) -> ResolutionScheme {
        ResolutionScheme::for_vca(self.vca, &self.observed_heights())
    }
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
    let mut engines: Vec<_> = methods
        .iter()
        .map(|m| build_engine(*m, config, trace.payload_map, None))
        .collect();
    let mut reports: Vec<Vec<WindowReport>> = methods.iter().map(|_| Vec::new()).collect();
    let flow = vcaml_netpkt::FlowKey::canonical(
        std::net::IpAddr::V4(std::net::Ipv4Addr::new(127, 0, 0, 1)),
        1,
        std::net::IpAddr::V4(std::net::Ipv4Addr::new(127, 0, 0, 2)),
        2,
        17,
    )
    .0;
    let mut source = ReplaySource::from_trace(trace, flow);
    while let Some(pkt) = source
        .next_packet()
        // lint: allow(no-unwrap-in-lib) -- replay over an in-memory trace never returns an IO error
        .expect("in-memory replay is infallible")
    {
        let SourcePacket::Parsed { packet, .. } = pkt else {
            unreachable!("trace replays yield pre-parsed packets");
        };
        for (engine, out) in engines.iter_mut().zip(&mut reports) {
            engine.push_into(&packet, out);
        }
    }
    let mut placed = engines.iter_mut().zip(reports).map(|(engine, mut out)| {
        engine.finish_into(&mut out);
        place_windows(engine.as_ref(), out, trace.duration_secs, w)
    });
    let heur_r = placed.next().expect("four replays"); // lint: allow(no-unwrap-in-lib) -- the engines vec is constructed with exactly four entries above
    let ip_ml_r = placed.next().expect("four replays"); // lint: allow(no-unwrap-in-lib) -- the engines vec is constructed with exactly four entries above
    let rtp_heur_r = placed.next().expect("four replays"); // lint: allow(no-unwrap-in-lib) -- the engines vec is constructed with exactly four entries above
    let rtp_ml_r = placed.next().expect("four replays"); // lint: allow(no-unwrap-in-lib) -- the engines vec is constructed with exactly four entries above

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

        samples.push(WindowSample {
            ipudp_features: ip_ml_r[wi]
                .features
                .clone()
                .expect("ML report carries features"), // lint: allow(no-unwrap-in-lib) -- ML engines always attach features to their reports
            rtp_features: rtp_ml_r[wi]
                .features
                .clone()
                .expect("ML report carries features"), // lint: allow(no-unwrap-in-lib) -- ML engines always attach features to their reports
            truth,
            heur: heur_r[wi]
                .estimate
                .expect("heuristic report carries estimate"), // lint: allow(no-unwrap-in-lib) -- heuristic engines always attach an estimate to their reports
            rtp_heur: rtp_heur_r[wi]
                .estimate
                .expect("heuristic report carries estimate"), // lint: allow(no-unwrap-in-lib) -- heuristic engines always attach an estimate to their reports
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
pub fn build_samples(traces: &[Trace], opts: &PipelineOpts) -> SampleSet {
    assert!(!traces.is_empty(), "empty corpus");
    let vca = traces[0].vca;
    let w = opts.window_secs;
    let config = opts.engine_config();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(traces.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let collected = std::sync::Mutex::new(Vec::new());
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
                let samples = trace_samples(i, &traces[i], config, w);
                collected
                    .lock()
                    .expect("collector poisoned") // lint: allow(no-unwrap-in-lib) -- poisoned collector lock means a worker already panicked; escalate
                    .push((i, samples));
            });
        }
    });
    let mut collected = collected.into_inner().expect("collector poisoned"); // lint: allow(no-unwrap-in-lib) -- poisoned collector lock means a worker already panicked; escalate
    collected.sort_by_key(|(i, _)| *i);
    let samples: Vec<WindowSample> = collected.into_iter().flat_map(|(_, s)| s).collect();

    let mut rtp_names = flow_feature_names();
    rtp_names.extend(rtp_feature_names());
    SampleSet {
        vca,
        samples,
        ipudp_names: ipudp_feature_names(),
        rtp_names,
        window_secs: opts.window_secs,
    }
}

/// Summary statistics for one (method, target) cell of the evaluation.
#[derive(Debug, Clone)]
pub struct EvalSummary {
    /// Mean absolute error.
    pub mae: f64,
    /// Mean relative absolute error (meaningful for bitrate).
    pub mrae: f64,
    /// 10th percentile of signed errors (box-plot whisker).
    pub p10: f64,
    /// 90th percentile of signed errors.
    pub p90: f64,
    /// Median signed error.
    pub median_err: f64,
    /// Number of windows evaluated.
    pub n: usize,
}

/// Summarizes predictions against ground truth.
pub fn summarize(preds: &[f64], truths: &[f64]) -> EvalSummary {
    let errs: Vec<f64> = preds.iter().zip(truths).map(|(p, t)| p - t).collect();
    EvalSummary {
        mae: mae(preds, truths),
        mrae: if truths.iter().any(|t| t.abs() > 1e-9) {
            mrae(preds, truths)
        } else {
            0.0
        },
        p10: percentile(&errs, 10.0),
        p90: percentile(&errs, 90.0),
        median_err: percentile(&errs, 50.0),
        n: preds.len(),
    }
}

fn regression_truth(s: &WindowSample, target: Target) -> f64 {
    match target {
        Target::FrameRate => s.truth.fps,
        Target::Bitrate => s.truth.bitrate_kbps,
        Target::FrameJitter => s.truth.frame_jitter_ms,
        Target::Resolution => unreachable!("resolution is a classification target"),
    }
}

fn heuristic_estimate(s: &WindowSample, method: Method, target: Target) -> f64 {
    let est = match method {
        Method::IpUdpHeuristic => &s.heur,
        Method::RtpHeuristic => &s.rtp_heur,
        _ => unreachable!("not a heuristic method"),
    };
    match target {
        Target::FrameRate => est.fps,
        Target::Bitrate => est.bitrate_kbps,
        Target::FrameJitter => est.frame_jitter_ms,
        Target::Resolution => unreachable!("heuristics do not estimate resolution"),
    }
}

fn features_of(s: &WindowSample, method: Method) -> &[f64] {
    match method {
        Method::IpUdpMl => &s.ipudp_features,
        Method::RtpMl => &s.rtp_features,
        _ => unreachable!("not an ML method"),
    }
}

fn names_of(set: &SampleSet, method: Method) -> &[String] {
    match method {
        Method::IpUdpMl => &set.ipudp_names,
        Method::RtpMl => &set.rtp_names,
        _ => unreachable!("not an ML method"),
    }
}

/// Builds the regression dataset for an ML method.
fn regression_dataset(set: &SampleSet, method: Method, target: Target) -> Dataset {
    let mut d = Dataset::new(names_of(set, method).to_vec());
    for s in &set.samples {
        d.push(features_of(s, method), regression_truth(s, target));
    }
    d
}

/// Cross-validated predictions + truths for a regression target.
pub fn eval_ml_regression(
    set: &SampleSet,
    method: Method,
    target: Target,
    opts: &PipelineOpts,
) -> (Vec<f64>, Vec<f64>) {
    assert!(method.is_ml(), "ML evaluation on a heuristic method");
    let d = regression_dataset(set, method, target);
    let preds = cross_val_predict(
        &d,
        Task::Regression,
        &opts.forest,
        opts.cv_folds,
        opts.forest.seed,
    );
    (preds, d.targets().to_vec())
}

/// Heuristic predictions + truths for a regression target.
pub fn eval_heuristic(set: &SampleSet, method: Method, target: Target) -> (Vec<f64>, Vec<f64>) {
    assert!(!method.is_ml(), "heuristic evaluation on an ML method");
    let preds: Vec<f64> = set
        .samples
        .iter()
        .map(|s| heuristic_estimate(s, method, target))
        .collect();
    let truths: Vec<f64> = set
        .samples
        .iter()
        .map(|s| regression_truth(s, target))
        .collect();
    (preds, truths)
}

/// Cross-validated resolution classification: returns (confusion matrix,
/// accuracy). `None` when the corpus shows fewer than two classes (the
/// paper skips Webex real-world, §5.2.4).
pub fn eval_ml_resolution(
    set: &SampleSet,
    method: Method,
    opts: &PipelineOpts,
) -> Option<(ConfusionMatrix, f64)> {
    assert!(method.is_ml());
    let scheme = set.resolution_scheme();
    if !scheme.is_classifiable() {
        return None;
    }
    let mut d = Dataset::new(names_of(set, method).to_vec());
    for s in &set.samples {
        if let Some(cls) = scheme.class_of(s.truth.height) {
            d.push(features_of(s, method), cls as f64);
        }
    }
    if d.len() < opts.cv_folds {
        return None;
    }
    let task = Task::Classification {
        n_classes: scheme.n_classes(),
    };
    let preds = cross_val_predict(&d, task, &opts.forest, opts.cv_folds, opts.forest.seed);
    let acc = accuracy(&preds, d.targets());
    let m = ConfusionMatrix::from_predictions(scheme.labels(), &preds, d.targets());
    Some((m, acc))
}

/// Fits on the full corpus and returns the top-k feature importances
/// (paper Figs. 5, 7, 9, A.4–A.9).
pub fn feature_importances(
    set: &SampleSet,
    method: Method,
    target: Target,
    opts: &PipelineOpts,
    k: usize,
) -> Vec<(String, f64)> {
    assert!(method.is_ml());
    match target {
        Target::Resolution => {
            let scheme = set.resolution_scheme();
            let mut d = Dataset::new(names_of(set, method).to_vec());
            for s in &set.samples {
                if let Some(cls) = scheme.class_of(s.truth.height) {
                    d.push(features_of(s, method), cls as f64);
                }
            }
            let f = RandomForest::fit(
                &d,
                Task::Classification {
                    n_classes: scheme.n_classes(),
                },
                &opts.forest,
            );
            f.top_features(k)
        }
        _ => {
            let d = regression_dataset(set, method, target);
            let f = RandomForest::fit(&d, Task::Regression, &opts.forest);
            f.top_features(k)
        }
    }
}

/// Transferability (§5.3): trains on one corpus, tests on another.
/// Returns (predictions, truths) on the test corpus.
pub fn transfer_regression(
    train: &SampleSet,
    test: &SampleSet,
    method: Method,
    target: Target,
    opts: &PipelineOpts,
) -> (Vec<f64>, Vec<f64>) {
    assert!(method.is_ml());
    let d_train = regression_dataset(train, method, target);
    let forest = RandomForest::fit(&d_train, Task::Regression, &opts.forest);
    let preds: Vec<f64> = test
        .samples
        .iter()
        .map(|s| forest.predict(features_of(s, method)))
        .collect();
    let truths: Vec<f64> = test
        .samples
        .iter()
        .map(|s| regression_truth(s, target))
        .collect();
    (preds, truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePacket;
    use vcaml_rtp::{PayloadMap, RtpHeader};

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

    fn opts() -> PipelineOpts {
        let mut o = PipelineOpts::paper(VcaKind::Teams);
        o.forest = RandomForestParams {
            n_trees: 12,
            seed: 1,
            ..Default::default()
        };
        o
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
    fn heuristics_recover_exact_fps_on_clean_traces() {
        let set = build_samples(&toy_corpus(), &opts());
        let (hp, ht) = eval_heuristic(&set, Method::IpUdpHeuristic, Target::FrameRate);
        let m = mae(&hp, &ht);
        assert!(m < 1.0, "IP/UDP heuristic fps MAE {m}");
        let (rp, rt) = eval_heuristic(&set, Method::RtpHeuristic, Target::FrameRate);
        let m = mae(&rp, &rt);
        assert!(m < 0.5, "RTP heuristic fps MAE {m}");
    }

    #[test]
    fn ml_learns_fps_from_features() {
        let set = build_samples(&toy_corpus(), &opts());
        let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts());
        let m = mae(&p, &t);
        assert!(m < 4.0, "IP/UDP ML fps MAE {m}");
    }

    #[test]
    fn ml_bitrate_tracks_truth() {
        let set = build_samples(&toy_corpus(), &opts());
        let (p, t) = eval_ml_regression(&set, Method::RtpMl, Target::Bitrate, &opts());
        let rel = mrae(&p, &t);
        assert!(rel < 0.35, "RTP ML bitrate MRAE {rel}");
    }

    #[test]
    fn resolution_classification_works() {
        let set = build_samples(&toy_corpus(), &opts());
        let (m, acc) = eval_ml_resolution(&set, Method::IpUdpMl, &opts()).unwrap();
        assert!(acc > 0.8, "resolution accuracy {acc}");
        assert_eq!(m.labels().len(), 3); // Teams → low/medium/high
    }

    #[test]
    fn importances_sorted_and_named() {
        let set = build_samples(&toy_corpus(), &opts());
        let imp = feature_importances(&set, Method::IpUdpMl, Target::FrameRate, &opts(), 5);
        assert_eq!(imp.len(), 5);
        assert!(imp.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(set.ipudp_names.contains(&imp[0].0));
    }

    #[test]
    fn transfer_produces_predictions() {
        let train = build_samples(&toy_corpus(), &opts());
        let test_traces = vec![toy_trace(20, 8, 800, 9)];
        let test = build_samples(&test_traces, &opts());
        let (p, t) =
            transfer_regression(&train, &test, Method::IpUdpMl, Target::FrameRate, &opts());
        assert_eq!(p.len(), test.samples.len());
        let m = mae(&p, &t);
        assert!(m < 8.0, "transfer MAE {m}");
    }

    #[test]
    fn summarize_reports_percentiles() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.n, 4);
        assert!((s.mae - 1.5).abs() < 1e-9);
        assert!(s.p10 >= 0.0 && s.p90 <= 3.0);
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
    fn observed_heights_and_scheme() {
        let set = build_samples(&toy_corpus(), &opts());
        let hs = set.observed_heights();
        assert_eq!(hs, vec![180, 360]);
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn empty_corpus_rejected() {
        let _ = build_samples(&[], &opts());
    }
}
