//! The paper's evaluation pipeline over [`vcaml::SampleSet`]s: 5-fold
//! cross-validated random forests for the two ML methods, the
//! heuristics' own estimates scored against the same truth, resolution
//! classification, feature importances and lab-to-real-world transfer
//! (§4.3, §5).
//!
//! The product builds the samples ([`vcaml::build_samples`]); everything
//! here only fits and scores them.

use vcaml::{EngineConfig, Method, ResolutionScheme, SampleSet, WindowSample};
use vcaml_mlcore::{
    accuracy, cross_val_predict, ConfusionMatrix, Dataset, RandomForest, RandomForestParams, Task,
};
use vcaml_rtp::VcaKind;

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

/// Evaluation configuration: how samples are built, and how the models
/// on them are fitted and cross-validated.
#[derive(Debug, Clone)]
pub struct EvalOpts {
    /// Window construction, passed to [`vcaml::build_samples`].
    pub engine: EngineConfig,
    /// Random-forest hyperparameters.
    pub forest: RandomForestParams,
    /// Cross-validation folds (paper: 5).
    pub cv_folds: usize,
}

impl EvalOpts {
    /// The paper's configuration for a VCA (§4.3).
    pub fn paper(vca: VcaKind) -> Self {
        EvalOpts {
            engine: EngineConfig::paper(vca),
            forest: RandomForestParams::default(),
            cv_folds: 5,
        }
    }
}

/// Distinct ground-truth frame heights observed (for resolution
/// schemes).
fn observed_heights(set: &SampleSet) -> Vec<u32> {
    let mut hs: Vec<u32> = set
        .samples
        .iter()
        .map(|s| s.truth.height)
        .filter(|&h| h > 0)
        .collect();
    hs.sort_unstable();
    hs.dedup();
    hs
}

/// The resolution scheme for a corpus.
fn resolution_scheme(set: &SampleSet) -> ResolutionScheme {
    ResolutionScheme::for_vca(set.vca, &observed_heights(set))
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
        Method::IpUdpMl | Method::RtpMl => unreachable!("not a heuristic method"),
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
        Method::IpUdpHeuristic | Method::RtpHeuristic => unreachable!("not an ML method"),
    }
}

fn names_of(set: &SampleSet, method: Method) -> &[String] {
    match method {
        Method::IpUdpMl => &set.ipudp_names,
        Method::RtpMl => &set.rtp_names,
        Method::IpUdpHeuristic | Method::RtpHeuristic => unreachable!("not an ML method"),
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

/// Builds the resolution-class dataset for an ML method; windows whose
/// height the scheme does not classify are left out.
fn resolution_dataset(set: &SampleSet, method: Method, scheme: &ResolutionScheme) -> Dataset {
    let mut d = Dataset::new(names_of(set, method).to_vec());
    for s in &set.samples {
        if let Some(cls) = scheme.class_of(s.truth.height) {
            d.push(features_of(s, method), cls as f64);
        }
    }
    d
}

/// Cross-validated predictions + truths for a regression target.
pub fn eval_ml_regression(
    set: &SampleSet,
    method: Method,
    target: Target,
    opts: &EvalOpts,
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
    opts: &EvalOpts,
) -> Option<(ConfusionMatrix, f64)> {
    assert!(method.is_ml());
    let scheme = resolution_scheme(set);
    if !scheme.is_classifiable() {
        return None;
    }
    let d = resolution_dataset(set, method, &scheme);
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
    opts: &EvalOpts,
    k: usize,
) -> Vec<(String, f64)> {
    assert!(method.is_ml());
    let (d, task) = match target {
        Target::Resolution => {
            let scheme = resolution_scheme(set);
            let task = Task::Classification {
                n_classes: scheme.n_classes(),
            };
            (resolution_dataset(set, method, &scheme), task)
        }
        Target::FrameRate | Target::Bitrate | Target::FrameJitter => {
            (regression_dataset(set, method, target), Task::Regression)
        }
    };
    RandomForest::fit(&d, task, &opts.forest).top_features(k)
}

/// Transferability (§5.3): trains on one corpus, tests on another.
/// Returns (predictions, truths) on the test corpus.
pub fn transfer_regression(
    train: &SampleSet,
    test: &SampleSet,
    method: Method,
    target: Target,
    opts: &EvalOpts,
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
    use vcaml::{build_samples, Trace, TracePacket, TruthRow};
    use vcaml_mlcore::{mae, mrae};
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

    fn opts() -> EvalOpts {
        EvalOpts {
            forest: RandomForestParams {
                n_trees: 12,
                seed: 1,
                ..Default::default()
            },
            ..EvalOpts::paper(VcaKind::Teams)
        }
    }

    fn toy_samples() -> SampleSet {
        build_samples(&toy_corpus(), &opts().engine)
    }

    #[test]
    fn heuristics_recover_exact_fps_on_clean_traces() {
        let set = toy_samples();
        let (hp, ht) = eval_heuristic(&set, Method::IpUdpHeuristic, Target::FrameRate);
        let m = mae(&hp, &ht);
        assert!(m < 1.0, "IP/UDP heuristic fps MAE {m}");
        let (rp, rt) = eval_heuristic(&set, Method::RtpHeuristic, Target::FrameRate);
        let m = mae(&rp, &rt);
        assert!(m < 0.5, "RTP heuristic fps MAE {m}");
    }

    #[test]
    fn ml_learns_fps_from_features() {
        let set = toy_samples();
        let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts());
        let m = mae(&p, &t);
        assert!(m < 4.0, "IP/UDP ML fps MAE {m}");
    }

    #[test]
    fn ml_bitrate_tracks_truth() {
        let set = toy_samples();
        let (p, t) = eval_ml_regression(&set, Method::RtpMl, Target::Bitrate, &opts());
        let rel = mrae(&p, &t);
        assert!(rel < 0.35, "RTP ML bitrate MRAE {rel}");
    }

    #[test]
    fn resolution_classification_works() {
        let set = toy_samples();
        let (m, acc) = eval_ml_resolution(&set, Method::IpUdpMl, &opts()).unwrap();
        assert!(acc > 0.8, "resolution accuracy {acc}");
        assert_eq!(m.labels().len(), 3); // Teams → low/medium/high
    }

    #[test]
    fn importances_sorted_and_named() {
        let set = toy_samples();
        let imp = feature_importances(&set, Method::IpUdpMl, Target::FrameRate, &opts(), 5);
        assert_eq!(imp.len(), 5);
        assert!(imp.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(set.ipudp_names.contains(&imp[0].0));
    }

    #[test]
    fn transfer_produces_predictions() {
        let train = toy_samples();
        let test = build_samples(&[toy_trace(20, 8, 800, 9)], &opts().engine);
        let (p, t) =
            transfer_regression(&train, &test, Method::IpUdpMl, Target::FrameRate, &opts());
        assert_eq!(p.len(), test.samples.len());
        let m = mae(&p, &t);
        assert!(m < 8.0, "transfer MAE {m}");
    }

    #[test]
    fn observed_heights_and_scheme() {
        let set = toy_samples();
        assert_eq!(observed_heights(&set), vec![180, 360]);
    }
}
