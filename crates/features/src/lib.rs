//! # vcaml-features — feature extraction (paper Table 1)
//!
//! Three feature families, computed per prediction window `W`:
//!
//! * **Flow-level statistics** (12): bytes/s, packets/s, and five order
//!   statistics each over packet sizes and inter-arrival times.
//! * **VCA-semantics features** (2): number of unique packet sizes and
//!   number of microbursts — the features derived from how VCAs fragment
//!   frames into packets (§3.2.2).
//! * **RTP features** (12): unique RTP timestamp counts over the video and
//!   retransmission streams plus their intersection/union, per-stream
//!   marker-bit sums, out-of-order sequence count, and five statistics of
//!   the RTP lag.
//!
//! `IP/UDP ML` uses the first two families (14 features); `RTP ML` uses
//! flow statistics + RTP features.
//!
//! Every formula is implemented **once**, as a single-pass accumulator in
//! [`incremental`] ([`FlowFeatureAcc`], [`IpUdpFeatureAcc`],
//! [`rtp_feats::RtpWindowAcc`]); the batch functions here replay slices
//! through those accumulators, and the streaming engine in `vcaml::engine`
//! feeds them packet by packet, so the two paths cannot diverge. (The
//! standalone [`semantics`] helpers keep simple slice forms of the two
//! VCA-semantics counts for direct use and as an independent oracle; an
//! equivalence test in [`incremental`] couples them to the accumulator.)
pub mod flow_stats;
pub mod incremental;
pub mod rtp_feats;
pub mod semantics;
pub mod stats;
pub mod window;

pub use flow_stats::{flow_feature_names, flow_features};
pub use incremental::{FlowFeatureAcc, IpUdpFeatureAcc, StatsMode};
pub use rtp_feats::{rtp_feature_names, RtpWindow, RtpWindowAcc};
pub use semantics::{microbursts, unique_sizes, DEFAULT_THETA_IAT_US};
pub use window::{windows_by_second, PktObs};

/// Feature names for the IP/UDP ML model (flow stats + semantics).
pub fn ipudp_feature_names() -> Vec<String> {
    let mut names = flow_feature_names();
    names.push("# unique sizes".to_string());
    names.push("# microbursts".to_string());
    names
}

/// The IP/UDP ML feature vector for one window of video-classified
/// packets (`window_secs` is the window length; `theta_iat_us` the
/// microburst inter-arrival threshold). Implemented as a replay over
/// [`IpUdpFeatureAcc`].
pub fn ipudp_features(pkts: &[PktObs], window_secs: f64, theta_iat_us: i64) -> Vec<f64> {
    assert!(window_secs > 0.0, "non-positive window");
    let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, theta_iat_us);
    for p in pkts {
        acc.push(p.ts, p.size);
    }
    acc.features(window_secs)
}
