//! Deterministic ML model training for the grid's two ML methods.
//!
//! Models are trained once per VCA on an in-lab corpus whose seed space
//! is disjoint from every scenario cell seed (cell seeds are FNV-mixed,
//! training seeds are small constants), so no scenario scores a model on
//! its own training traffic.

use vcaml::{build_samples, EngineConfig};
use vcaml_datasets::{inlab_corpus, CorpusConfig};
use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_rtp::VcaKind;

/// Frame-rate and bitrate regressors for both ML feature sets of one VCA.
pub struct VcaModels {
    /// fps regressor on the 14 IP/UDP features.
    pub ipudp_fps: RandomForest,
    /// bitrate regressor on the 14 IP/UDP features.
    pub ipudp_bitrate: RandomForest,
    /// fps regressor on the 24 flow+RTP features.
    pub rtp_fps: RandomForest,
    /// bitrate regressor on the 24 flow+RTP features.
    pub rtp_bitrate: RandomForest,
}

fn fit(names: &[String], rows: Vec<(&[f64], f64)>, params: &RandomForestParams) -> RandomForest {
    let mut d = Dataset::new(names.to_vec());
    for (row, y) in rows {
        d.push(row, y);
    }
    RandomForest::fit(&d, Task::Regression, params)
}

/// Trains all four regressors for `vca`.
pub fn train(vca: VcaKind) -> VcaModels {
    let cfg = CorpusConfig {
        n_calls: 4,
        min_secs: 18,
        max_secs: 24,
        seed: 0x5eed + vca as u64,
    };
    let traces = inlab_corpus(vca, &cfg);
    let set = build_samples(&traces, &EngineConfig::paper(vca));
    let params = RandomForestParams {
        n_trees: 12,
        seed: 1,
        ..Default::default()
    };
    VcaModels {
        ipudp_fps: fit(
            &set.ipudp_names,
            set.samples
                .iter()
                .map(|s| (s.ipudp_features.as_slice(), s.truth.fps))
                .collect(),
            &params,
        ),
        ipudp_bitrate: fit(
            &set.ipudp_names,
            set.samples
                .iter()
                .map(|s| (s.ipudp_features.as_slice(), s.truth.bitrate_kbps))
                .collect(),
            &params,
        ),
        rtp_fps: fit(
            &set.rtp_names,
            set.samples
                .iter()
                .map(|s| (s.rtp_features.as_slice(), s.truth.fps))
                .collect(),
            &params,
        ),
        rtp_bitrate: fit(
            &set.rtp_names,
            set.samples
                .iter()
                .map(|s| (s.rtp_features.as_slice(), s.truth.bitrate_kbps))
                .collect(),
            &params,
        ),
    }
}

/// Lazily-trained model cache keyed by VCA, so a grid run trains each
/// VCA's forests exactly once.
#[derive(Default)]
pub struct ModelCache {
    trained: Vec<(VcaKind, VcaModels)>,
}

impl ModelCache {
    /// The models for `vca`, training them on first use.
    pub fn get(&mut self, vca: VcaKind) -> &VcaModels {
        let i = match self.trained.iter().position(|(v, _)| *v == vca) {
            Some(i) => i,
            None => {
                self.trained.push((vca, train(vca)));
                self.trained.len() - 1
            }
        };
        &self.trained[i].1
    }
}
